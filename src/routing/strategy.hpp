// Routing strategies: what a broker forwards to a neighbor (paper
// Sec. 2.2).
//
// The strategy decides how a broker's forward-set inputs toward one
// neighbor link (the other links' routing entries, its non-LD local
// subscriptions and virtual counterparts) collapse into the *target*
// forward set — compute_forward_set below is the definition. A broker
// never recomputes it: CoverIndex keeps one persistent view per link
// whose elected filters are that target, updated at every table
// mutation, and marks dirty each filter whose target entry changed. The
// broker reconciles only the dirty filters (plus its re-expose pins)
// against what it previously sent, emitting the same ordered program
// diff_forward_sets would — upserts before prunes, each in Filter order.
// (Under merging the view elects the covering set; the broker merges a
// copy of it and diffs the result in full.) Invariant: outside a link's dirty set, the sent set equals the
// effective target. The strategies:
//
//   flooding  — nothing is forwarded; notifications flood instead.
//   simple    — every subscription forwarded individually.
//   identity  — structurally identical filters forwarded once.
//   covering  — only the maximal filters (no other forwarded filter
//               accepts a superset) are forwarded.
//   merging   — covering, then pairwise exact merges until fixpoint.
//
// Tags (the SubKeys a forwarded filter serves) survive aggregation: a
// covered subscription's key is attached to every representative that
// covers it. The relocation protocol depends on this — junction
// detection must find a roaming client's key in aggregated entries
// (paper Sec. 4.2: "Covering and merging can be exploited, too").
#ifndef REBECA_ROUTING_STRATEGY_HPP
#define REBECA_ROUTING_STRATEGY_HPP

#include <map>
#include <set>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/util/domain_ids.hpp"

namespace rebeca::routing {

enum class Strategy { flooding, simple, identity, covering, merging };

const char* strategy_name(Strategy s);

/// How compute_forward_set evaluates the covering pass: `linear` is the
/// O(n²) pairwise reference scan; `index` answers the same relation
/// through CoverEngine queries. Brokers always use `index`; `linear`
/// stays as the reference that tests and benches compare against.
enum class AdminIndex { linear, index };

/// One subscription as seen by the forwarding computation.
struct ForwardInput {
  filter::Filter f;
  std::set<SubKey> tags;
};

/// Filter → serving subscription keys. Map keys are structural filter
/// identity; deterministic iteration keeps runs reproducible.
using ForwardSet = std::map<filter::Filter, std::set<SubKey>>;

/// Collapses the inputs into the set of (filter, tags) pairs that should
/// be forwarded to one neighbor.
[[nodiscard]] ForwardSet compute_forward_set(Strategy strategy,
                                             const std::vector<ForwardInput>& inputs);

/// Greedy pairwise exact merges to fixpoint over an already
/// covering-collapsed set (the merging strategy's second pass).
/// Deterministic: scans pairs in map order, restarts on change.
[[nodiscard]] ForwardSet merge_fixpoint(ForwardSet current);

/// As above, with the covering pass evaluated per `admin_index`:
/// `linear` delegates to the two-argument reference; `index` replaces
/// the O(n²) pairwise covering scan with CoverEngine queries over the
/// distinct filters. Both produce the identical ForwardSet.
[[nodiscard]] ForwardSet compute_forward_set(Strategy strategy,
                                             const std::vector<ForwardInput>& inputs,
                                             AdminIndex admin_index);

/// One step of a forward-set reconciliation program.
struct DiffStep {
  enum class Kind { upsert, prune };
  Kind kind = Kind::upsert;
  filter::Filter f;
  std::set<SubKey> tags;  // upsert only
};

/// Ordered reconciliation program between the previously sent set and
/// the target. Upserts ((re-)subscriptions — new filter or changed tags;
/// receivers treat subscribe as an upsert) strictly precede prunes
/// (unsubscriptions): on a FIFO link the receiver installs every
/// re-exposed filter before any covering entry disappears, so no window
/// exists in which a covered subscription loses its representative
/// (uncover-before-prune).
struct DiffProgram {
  std::vector<DiffStep> steps;

  [[nodiscard]] bool empty() const { return steps.empty(); }
  [[nodiscard]] std::size_t upserts() const;
  [[nodiscard]] std::size_t prunes() const;
};

[[nodiscard]] DiffProgram diff_forward_sets(const ForwardSet& sent,
                                            const ForwardSet& target);

/// Entries of one hop's routing table strictly covered by `f`: f covers
/// the entry and the entry is not structurally equal to f. These are the
/// subscriptions that lose their wire representative if an entry for `f`
/// is pruned from that hop — the set the relocation protocol must
/// re-expose along the old path before pruning.
[[nodiscard]] ForwardSet covered_by(const filter::Filter& f,
                                    const ForwardSet& hop);

/// True when the strategy aggregates filters away (covering/merging):
/// pruning a forwarded entry can then orphan covered subscriptions that
/// were never put on the wire, so moveouts need the two-phase
/// re-expose/ack protocol. Simple/identity forward every distinct filter
/// and may prune directly; flooding forwards nothing.
[[nodiscard]] bool strategy_aggregates(Strategy s);

/// One step of a relocation moveout program for a single hop (one
/// old-path link's routing table).
struct MoveoutStep {
  enum class Kind {
    /// Remove the departing key from this entry's tag set; the entry
    /// keeps serving its other subscriptions — no routing change.
    untag,
    /// Ask the downstream broker to re-expose every subscription this
    /// entry covers, and wait for its ack before the matching prune.
    reexpose,
    /// Remove the entry (after the ack barrier when preceded by a
    /// reexpose step).
    prune,
  };
  Kind kind = Kind::untag;
  filter::Filter f;
};

/// Ordered moveout program: how a relocated subscription's key leaves
/// one hop's routing table. Historically this was a bare unsub list
/// (erase the key everywhere, drop empty entries); under aggregating
/// strategies that pruned covering representatives before downstream
/// covered filters were re-exposed, silently dropping bystanders'
/// notifications. The program makes the required order explicit:
/// {untag*} then, per dying entry, {reexpose, ack-barrier, prune} — or a
/// plain {prune} when the strategy cannot have hidden anything.
struct MoveoutProgram {
  std::vector<MoveoutStep> steps;
  /// Number of reexpose steps: the acks the executing broker must await
  /// before it may run the prune steps.
  std::size_t ack_barriers = 0;

  [[nodiscard]] bool empty() const { return steps.empty(); }
};

/// One moveout candidate: a routing-table entry tagged with the
/// departing key, plus how many keys it serves in total (the
/// untag-vs-prune decision). CoverIndex::tagged_filters produces these
/// from its copy of the hop's table.
struct MoveoutCandidate {
  filter::Filter f;
  std::size_t tag_count = 0;
};

/// Plans the moveout of `key` from one hop's table under `strategy`.
[[nodiscard]] MoveoutProgram plan_moveout(Strategy strategy, const SubKey& key,
                                          const ForwardSet& hop);

/// Same program from pre-extracted candidates (the entries tagged with
/// the departing key, in Filter order, with their tag counts): the
/// keyed overload above is exactly this after a table walk.
[[nodiscard]] MoveoutProgram plan_moveout(
    Strategy strategy, const std::vector<MoveoutCandidate>& candidates);

}  // namespace rebeca::routing

#endif  // REBECA_ROUTING_STRATEGY_HPP
