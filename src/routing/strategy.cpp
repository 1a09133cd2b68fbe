#include "src/routing/strategy.hpp"

#include <algorithm>
#include <cstdint>

#include "src/routing/cover_index.hpp"

namespace rebeca::routing {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::flooding: return "flooding";
    case Strategy::simple: return "simple";
    case Strategy::identity: return "identity";
    case Strategy::covering: return "covering";
    case Strategy::merging: return "merging";
  }
  return "?";
}

namespace {

/// identity collapse: group structurally equal filters, union their tags.
ForwardSet collapse_identity(const std::vector<ForwardInput>& inputs) {
  ForwardSet out;
  for (const auto& in : inputs) {
    auto& tags = out[in.f];
    tags.insert(in.tags.begin(), in.tags.end());
  }
  return out;
}

/// covering collapse: keep only maximal filters. A covered
/// subscription's tags are NOT attached to its representative — that
/// would turn every covered subscribe into a tag-update message and
/// forfeit covering's admin savings. The relocation protocol handles
/// tag-less aggregation with its covering fallback (the fetch is
/// "directed towards … covering filters", paper Sec. 4.2).
ForwardSet collapse_covering(const std::vector<ForwardInput>& inputs) {
  ForwardSet distinct = collapse_identity(inputs);

  // Maximal = not strictly covered by another distinct filter. For
  // mutually covering (semantically equivalent but structurally distinct)
  // filters, the structurally smallest one represents the class, which
  // keeps the choice deterministic.
  ForwardSet out;
  for (const auto& [f, tags] : distinct) {
    bool dominated = false;
    for (const auto& [g, gtags] : distinct) {
      if (&g == &f) continue;
      if (!g.covers(f)) continue;
      if (f.covers(g)) {
        // Equivalent pair: the map iterates in operator< order, so the
        // smaller key wins; f is dominated iff g < f.
        if (g < f) dominated = true;
      } else {
        dominated = true;
      }
      if (dominated) break;
    }
    if (!dominated) out.emplace(f, tags);
  }
  return out;
}

/// The indexed covering collapse: same result as collapse_covering,
/// computed as an incremental maximal set instead of the O(n²) pairwise
/// pass. Write g ≻ f for "g dominates f" (g covers f, and either not
/// mutually — a strict cover — or g < f, the reference pass's
/// deterministic equivalence tie-break). ≻ is a strict partial order
/// (covers is a transitive preorder; mutual-cover classes fall back to
/// the total structural order), so every dominated filter is dominated
/// by a ≻-maximal one — checking each candidate against the *current
/// maximal set* (via one CoverEngine query over it) decides domination
/// exactly, and the maximal set is usually far smaller than the input.
/// A later candidate may dominate earlier survivors; covered_by_of
/// finds and evicts them, so the final set is precisely the ≻-maximal
/// elements — element-for-element what collapse_covering keeps.
ForwardSet collapse_covering_indexed(const std::vector<ForwardInput>& inputs) {
  ForwardSet distinct = collapse_identity(inputs);

  CoverEngine engine;  // holds the current maximal set only
  ForwardSet out;
  std::vector<std::uint32_t> hits;
  for (const auto& [f, tags] : distinct) {
    engine.covers_of(f, hits);
    bool dominated = false;
    for (const std::uint32_t s : hits) {
      const filter::Filter& g = *engine.filter_of(s);
      if (!f.covers(g) || g < f) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    // f joins the maximal set; evict current members it dominates. The
    // copy matters: the engine's pointer targets the out-map key the
    // erase destroys.
    engine.covered_by_of(f, hits);
    for (const std::uint32_t s : hits) {
      const filter::Filter g = *engine.filter_of(s);
      if (!g.covers(f) || f < g) {
        engine.remove(s);
        out.erase(g);
      }
    }
    auto [it, inserted] = out.emplace(f, tags);
    engine.add(&it->first);  // map keys are address-stable
  }
  return out;
}

/// merging collapse: covering, then merge to fixpoint.
ForwardSet collapse_merging(const std::vector<ForwardInput>& inputs) {
  return merge_fixpoint(collapse_covering(inputs));
}

}  // namespace

ForwardSet merge_fixpoint(ForwardSet current) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it1 = current.begin(); it1 != current.end() && !changed; ++it1) {
      for (auto it2 = std::next(it1); it2 != current.end() && !changed; ++it2) {
        auto merged = it1->first.try_merge(it2->first);
        if (!merged.has_value()) continue;
        std::set<SubKey> tags = it1->second;
        tags.insert(it2->second.begin(), it2->second.end());
        current.erase(it2);
        current.erase(it1);
        auto& slot = current[*merged];
        slot.insert(tags.begin(), tags.end());
        changed = true;
      }
    }
  }
  return current;
}

ForwardSet compute_forward_set(Strategy strategy,
                               const std::vector<ForwardInput>& inputs) {
  switch (strategy) {
    case Strategy::flooding:
      return {};
    case Strategy::simple:
      // Simple routing forwards every subscription; structurally equal
      // filters still share one wire entry keyed by the filter, but all
      // tags ride along so nothing is aggregated away.
      return collapse_identity(inputs);
    case Strategy::identity:
      return collapse_identity(inputs);
    case Strategy::covering:
      return collapse_covering(inputs);
    case Strategy::merging:
      return collapse_merging(inputs);
  }
  return {};
}

ForwardSet compute_forward_set(Strategy strategy,
                               const std::vector<ForwardInput>& inputs,
                               AdminIndex admin_index) {
  if (admin_index == AdminIndex::linear ||
      !strategy_aggregates(strategy)) {
    // Only the covering pass has an indexed variant; the other
    // strategies are already linear-time collapses.
    return compute_forward_set(strategy, inputs);
  }
  return strategy == Strategy::covering
             ? collapse_covering_indexed(inputs)
             : merge_fixpoint(collapse_covering_indexed(inputs));
}

std::size_t DiffProgram::upserts() const {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == DiffStep::Kind::upsert ? 1 : 0;
  return n;
}

std::size_t DiffProgram::prunes() const {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == DiffStep::Kind::prune ? 1 : 0;
  return n;
}

DiffProgram diff_forward_sets(const ForwardSet& sent, const ForwardSet& target) {
  DiffProgram program;
  // Upserts first: a target entry may cover a pruned one, and on a FIFO
  // link the receiver must install the replacement before the covering
  // entry goes away (uncover-before-prune).
  for (const auto& [f, tags] : target) {
    auto it = sent.find(f);
    if (it == sent.end() || it->second != tags) {
      program.steps.push_back({DiffStep::Kind::upsert, f, tags});
    }
  }
  for (const auto& [f, tags] : sent) {
    if (target.find(f) == target.end()) {
      program.steps.push_back({DiffStep::Kind::prune, f, {}});
    }
  }
  return program;
}

ForwardSet covered_by(const filter::Filter& f, const ForwardSet& hop) {
  ForwardSet out;
  for (const auto& [g, tags] : hop) {
    if (g == f) continue;  // the representative itself
    if (f.covers(g)) out.emplace(g, tags);
  }
  return out;
}

bool strategy_aggregates(Strategy s) {
  return s == Strategy::covering || s == Strategy::merging;
}

MoveoutProgram plan_moveout(Strategy strategy, const SubKey& key,
                            const ForwardSet& hop) {
  std::vector<MoveoutCandidate> candidates;
  for (const auto& [f, tags] : hop) {
    if (tags.count(key) != 0) candidates.push_back({f, tags.size()});
  }
  return plan_moveout(strategy, candidates);
}

MoveoutProgram plan_moveout(Strategy strategy,
                            const std::vector<MoveoutCandidate>& candidates) {
  MoveoutProgram program;
  for (const auto& cand : candidates) {
    if (cand.tag_count > 1) {
      // Other subscriptions keep the entry alive; dropping the key is
      // invisible to routing.
      program.steps.push_back({MoveoutStep::Kind::untag, cand.f});
      continue;
    }
    // The entry dies with the mover. Under an aggregating strategy it
    // may be the sole representative of covered downstream filters that
    // were never forwarded — uncover before pruning.
    if (strategy_aggregates(strategy)) {
      program.steps.push_back({MoveoutStep::Kind::reexpose, cand.f});
      ++program.ack_barriers;
    }
    program.steps.push_back({MoveoutStep::Kind::prune, cand.f});
  }
  return program;
}

}  // namespace rebeca::routing
