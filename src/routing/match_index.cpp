#include "src/routing/match_index.hpp"

#include <algorithm>
#include <set>

#include "src/util/assert.hpp"

namespace rebeca::routing {

namespace {

using filter::Constraint;
using filter::Op;
using filter::Value;
using detail::bound_less;
using detail::eq_key_exact;
using detail::value_class;

/// True when `m` is an int whose double twin is also a member (1 beside
/// 1.0): both share one equality key, and the double posts it — a huge
/// int64 probe under that key equals the double but never the int, so
/// the double's posting answers for both. In a set of exact, non-NaN
/// members this is the only way two members collide: distinct ints and
/// strings have distinct keys, and the set already folds equal doubles
/// (0.0 and -0.0).
bool has_double_twin(const Value& m, const std::set<Value>& members) {
  return m.is_int() &&
         members.count(Value(static_cast<double>(m.as_int()))) != 0;
}

/// Calls `post` with every value an eq or in_set term posts to the
/// equality map, each key at most once, and returns true — or returns
/// false without calling it when the term must stay on the general lane
/// (a NaN, whose key is unordered, or an in_set with a lossy-keyed
/// member, which could share a key with another member).
template <typename Post>
bool for_each_posting(const Constraint& c, Post&& post) {
  if (c.op() == Op::eq) {
    if (c.operand().is_nan()) return false;
    post(c.operand());
    return true;
  }
  const std::set<Value>& members = c.values();
  if (!std::all_of(members.begin(), members.end(), [](const Value& m) {
        return eq_key_exact(m) && !m.is_nan();
      })) {
    return false;
  }
  for (const Value& m : members) {
    if (!has_double_twin(m, members)) post(m);
  }
  return true;
}

void erase_one(std::vector<std::uint32_t>& slots, std::uint32_t slot) {
  auto it = std::find(slots.begin(), slots.end(), slot);
  REBECA_ASSERT(it != slots.end(), "match index: missing eq record for slot");
  *it = slots.back();  // order is free: collect() sorts its output
  slots.pop_back();
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry lifecycle
// ---------------------------------------------------------------------------

std::uint32_t MatchIndex::add_entry(Entry entry) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    entries_[slot] = std::move(entry);
  } else {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(entry));
    hits_.push_back(Hit{});
    term_counts_.push_back(0);
  }
  Entry& e = entries_[slot];
  e.alive = true;
  term_counts_[slot] = static_cast<std::uint32_t>(e.f.size());
  ++live_entries_;
  if (e.f.empty()) {
    empty_filter_slots_.push_back(slot);
  } else {
    for (const auto& term : e.f.terms()) index_term(term, slot);
  }
  return slot;
}

void MatchIndex::remove_entry(std::uint32_t slot) {
  Entry& e = entries_[slot];
  REBECA_ASSERT(e.alive, "match index: double remove of slot " << slot);
  if (e.f.empty()) {
    std::erase(empty_filter_slots_, slot);
  } else {
    for (const auto& term : e.f.terms()) unindex_term(term, slot);
  }
  e.alive = false;
  e.f = filter::Filter{};
  --live_entries_;
  free_slots_.push_back(slot);
}

void MatchIndex::index_term(const filter::Filter::Term& term,
                            std::uint32_t slot) {
  const std::uint32_t attr = term.attr.value();
  if (attr >= buckets_.size()) buckets_.resize(attr + 1);
  Bucket& b = buckets_[attr];
  const Constraint& c = term.c;

  switch (c.op()) {
    case Op::eq:
    case Op::in_set:
      if (!for_each_posting(c, [&](const Value& m) { post_eq(b, m, slot); })) {
        break;
      }
      return;
    case Op::lt:
    case Op::le:
    case Op::gt:
    case Op::ge:
    case Op::range: {
      const int cls = value_class(c.operand());
      if (cls == 2) break;  // ordered ops on bools: catch-all below
      Interval iv;
      iv.slot = slot;
      switch (c.op()) {
        case Op::lt:
        case Op::le:
          iv.has_hi = true;
          iv.hi = c.operand();
          iv.hi_strict = c.op() == Op::lt;
          break;
        case Op::gt:
        case Op::ge:
          iv.has_lo = true;
          iv.lo = c.operand();
          iv.lo_strict = c.op() == Op::gt;
          break;
        default:  // range (ctor asserts lo <= hi, so one ordered class)
          iv.has_lo = true;
          iv.lo = c.operand();
          iv.has_hi = true;
          iv.hi = c.hi();
          break;
      }
      if (iv.has_lo) {
        auto& list = cls == 0 ? b.num_lo : b.str_lo;
        const auto pos = std::lower_bound(
            list.begin(), list.end(), iv,
            [](const Interval& a, const Interval& x) {
              return bound_less(a.lo, x.lo);
            });
        list.insert(pos, std::move(iv));
      } else {
        // Upper-only: descending by hi, non-strict before strict on
        // ties, so the probe's prefix scan can stop at the first bound
        // that excludes the value.
        auto& list = cls == 0 ? b.num_hi : b.str_hi;
        const auto pos = std::lower_bound(
            list.begin(), list.end(), iv,
            [](const Interval& a, const Interval& x) {
              if (bound_less(x.hi, a.hi)) return true;
              if (bound_less(a.hi, x.hi)) return false;
              return !a.hi_strict && x.hi_strict;
            });
        list.insert(pos, std::move(iv));
      }
      return;
    }
    default:
      break;
  }
  // any / ne / prefix, unpostable eq / in_set (and ordered-on-bool):
  // exact evaluation.
  b.general.push_back(GeneralItem{c, slot});
}

void MatchIndex::unindex_term(const filter::Filter::Term& term,
                              std::uint32_t slot) {
  REBECA_ASSERT(term.attr.value() < buckets_.size(),
                "match index: unindex of unknown attr");
  Bucket& b = buckets_[term.attr.value()];
  const Constraint& c = term.c;

  const auto erase_slot = [slot](auto& list) {
    auto it = std::find_if(list.begin(), list.end(),
                           [slot](const auto& item) { return item.slot == slot; });
    REBECA_ASSERT(it != list.end(), "match index: missing record for slot");
    list.erase(it);
  };

  switch (c.op()) {
    case Op::eq:
    case Op::in_set:
      if (!for_each_posting(c,
                            [&](const Value& m) { unpost_eq(b, m, slot); })) {
        break;
      }
      return;
    case Op::lt:
    case Op::le: {
      const int cls = value_class(c.operand());
      if (cls == 2) break;
      erase_slot(cls == 0 ? b.num_hi : b.str_hi);
      return;
    }
    case Op::gt:
    case Op::ge:
    case Op::range: {
      const int cls = value_class(c.operand());
      if (cls == 2) break;
      erase_slot(cls == 0 ? b.num_lo : b.str_lo);
      return;
    }
    default:
      break;
  }
  erase_slot(b.general);
}

MatchIndex::EqProbe MatchIndex::probe_of(const Value& v) {
  EqProbe probe;
  probe.cls = value_class(v);
  switch (probe.cls) {
    case 0: probe.num = *v.numeric(); break;
    case 1: probe.str = v.as_string(); break;
    default: probe.b = v.as_bool(); break;
  }
  return probe;
}

void MatchIndex::post_eq(Bucket& b, const Value& operand, std::uint32_t slot) {
  const EqProbe probe = probe_of(operand);
  auto it = b.eq.lower_bound(probe);
  if (it == b.eq.end() || EqKeyLess{}(probe, it->first)) {
    it = b.eq.emplace_hint(
        it, EqKey{probe.cls, probe.num, std::string(probe.str), probe.b},
        EqBucket{});
  }
  EqBucket& bucket = it->second;
  if (!eq_key_exact(operand)) {
    bucket.inexact.emplace_back(operand, slot);
  } else if (operand.is_int()) {
    bucket.int_slots.push_back(slot);
  } else {
    bucket.slots.push_back(slot);
  }
}

void MatchIndex::unpost_eq(Bucket& b, const Value& operand,
                           std::uint32_t slot) {
  auto it = b.eq.find(probe_of(operand));
  REBECA_ASSERT(it != b.eq.end(), "match index: missing eq bucket");
  EqBucket& bucket = it->second;
  if (!eq_key_exact(operand)) {
    auto iit = std::find_if(bucket.inexact.begin(), bucket.inexact.end(),
                            [slot](const EqItem& item) { return item.slot == slot; });
    REBECA_ASSERT(iit != bucket.inexact.end(),
                  "match index: missing eq record for slot");
    bucket.inexact.erase(iit);
  } else {
    erase_one(operand.is_int() ? bucket.int_slots : bucket.slots, slot);
  }
  if (bucket.slots.empty() && bucket.int_slots.empty() &&
      bucket.inexact.empty()) {
    b.eq.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Plane maintenance
// ---------------------------------------------------------------------------

void MatchIndex::add_remote(LinkId link, const filter::Filter& f) {
  auto& slots = remote_slots_[link];
  if (slots.count(f) != 0) return;  // tag-only upsert: filter unchanged
  Entry e;
  e.source = Source::remote;
  e.link = link;
  e.f = f;
  slots.emplace(f, add_entry(std::move(e)));
}

void MatchIndex::remove_remote(LinkId link, const filter::Filter& f) {
  auto lit = remote_slots_.find(link);
  if (lit == remote_slots_.end()) return;
  auto it = lit->second.find(f);
  if (it == lit->second.end()) return;
  remove_entry(it->second);
  lit->second.erase(it);
  if (lit->second.empty()) remote_slots_.erase(lit);
}

void MatchIndex::upsert_keyed(std::map<SubKey, std::uint32_t>& slots,
                              Entry entry) {
  const SubKey key = entry.key;
  auto it = slots.find(key);
  if (it != slots.end()) remove_entry(it->second);
  slots[key] = add_entry(std::move(entry));
}

void MatchIndex::remove_keyed(std::map<SubKey, std::uint32_t>& slots,
                              const SubKey& key) {
  auto it = slots.find(key);
  if (it == slots.end()) return;
  remove_entry(it->second);
  slots.erase(it);
}

void MatchIndex::upsert_local(const SubKey& key, const filter::Filter& f) {
  Entry e;
  e.source = Source::local;
  e.key = key;
  e.f = f;
  upsert_keyed(local_slots_, std::move(e));
}

void MatchIndex::remove_local(const SubKey& key) {
  remove_keyed(local_slots_, key);
}

void MatchIndex::upsert_virtual(const SubKey& key, const filter::Filter& f) {
  Entry e;
  e.source = Source::virt;
  e.key = key;
  e.f = f;
  upsert_keyed(virtual_slots_, std::move(e));
}

void MatchIndex::remove_virtual(const SubKey& key) {
  remove_keyed(virtual_slots_, key);
}

void MatchIndex::upsert_transit(const SubKey& key, LinkId toward,
                                const filter::Filter& f) {
  Entry e;
  e.source = Source::transit;
  e.link = toward;
  e.key = key;
  e.f = f;
  upsert_keyed(transit_slots_, std::move(e));
}

void MatchIndex::remove_transit(const SubKey& key) {
  remove_keyed(transit_slots_, key);
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

void MatchIndex::bump(std::uint32_t slot) const {
  Hit& h = hits_[slot];
  if (h.stamp != query_stamp_) {
    h.stamp = query_stamp_;
    h.count = 0;
    touched_.push_back(slot);
  }
  ++h.count;
}

bool MatchIndex::interval_admits(const Interval& iv, const Value& v) {
  if (iv.has_hi) {
    const auto c = v.compare(iv.hi);
    if (!c.has_value() || *c > 0 || (*c == 0 && iv.hi_strict)) return false;
  }
  return true;
}

void MatchIndex::count_exact_matches(const filter::Notification& n) const {
  ++query_stamp_;  // drop the partial counts
  touched_.clear();
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& e = entries_[slot];
    if (!e.alive || e.f.empty() || !e.f.matches(n)) continue;
    hits_[slot] = Hit{query_stamp_, term_counts_[slot]};
    touched_.push_back(slot);
  }
}

void MatchIndex::collect(const filter::Notification& n, MatchHits& out) const {
  out.clear();
  ++query_stamp_;
  touched_.clear();

  for (const auto& attr : n.attrs()) {
    const std::uint32_t id = attr.id.value();
    if (id >= buckets_.size()) continue;
    const Bucket& b = buckets_[id];
    const Value& v = attr.value;
    if (v.is_nan()) {
      count_exact_matches(n);
      break;
    }
    const int cls = value_class(v);

    // Equality postings: one normalized probe (borrowing the string, no
    // copy), exact re-check per item only where the key is lossy.
    if (!b.eq.empty()) {
      auto it = b.eq.find(probe_of(v));
      if (it != b.eq.end()) {
        const EqBucket& bucket = it->second;
        for (const std::uint32_t slot : bucket.slots) bump(slot);
        // A lossy probe (a huge int64) equals no exact int under its key.
        if (eq_key_exact(v)) {
          for (const std::uint32_t slot : bucket.int_slots) bump(slot);
        }
        for (const EqItem& item : bucket.inexact) {
          if (v.equals(item.operand)) bump(item.slot);
        }
      }
    }

    // Ordered bound lists: each is a prefix scan that stops at the first
    // bound excluding v.
    if (cls == 0 || cls == 1) {
      const auto& lo_list = cls == 0 ? b.num_lo : b.str_lo;
      for (const Interval& iv : lo_list) {
        const auto c = v.compare(iv.lo);
        if (!c.has_value()) break;  // cross-domain bound: cannot happen
        if (*c < 0) break;          // ascending: every later lo is larger
        if (*c == 0 && iv.lo_strict) continue;
        if (interval_admits(iv, v)) bump(iv.slot);
      }
      const auto& hi_list = cls == 0 ? b.num_hi : b.str_hi;
      for (const Interval& iv : hi_list) {
        const auto c = v.compare(iv.hi);
        if (!c.has_value()) break;
        if (*c > 0 || (*c == 0 && iv.hi_strict)) break;  // descending his
        bump(iv.slot);
      }
    }

    // Catch-all: exact constraint evaluation.
    for (const GeneralItem& item : b.general) {
      if (item.c.matches(v)) bump(item.slot);
    }
  }

  const auto emit = [&](std::uint32_t slot) {
    const Entry& e = entries_[slot];
    switch (e.source) {
      case Source::remote:
      case Source::transit:
        out.links.push_back(e.link);
        break;
      case Source::local:
        out.locals.push_back(e.key);
        break;
      case Source::virt:
        out.virtuals.push_back(e.key);
        break;
    }
  };

  for (std::uint32_t slot : touched_) {
    if (hits_[slot].count == term_counts_[slot]) emit(slot);
  }
  for (std::uint32_t slot : empty_filter_slots_) emit(slot);

  // Canonical order per plane; the broker applies links in attach order
  // via membership tests, locals/virtuals in ascending key order —
  // exactly the iteration order of the linear scans.
  std::sort(out.links.begin(), out.links.end());
  out.links.erase(std::unique(out.links.begin(), out.links.end()),
                  out.links.end());
  std::sort(out.locals.begin(), out.locals.end());
  std::sort(out.virtuals.begin(), out.virtuals.end());
}

}  // namespace rebeca::routing
