// Incremental counting covering/overlap index: the broker's admin plane.
//
// PR 5's MatchIndex made the *notification* path sublinear, but the
// admin-side relations stayed linear: collapse_covering's O(n²) pairwise
// pass, routing::covered_by's scan, and the relocation fallback in
// dispatch_fetch all evaluate Filter::covers/overlaps against every
// table entry. Those run on exactly the events the mobility protocol
// multiplies (subscription churn, moveto/moveout bursts, fetch
// relocation), and they dominate once routing tables grow.
//
// The CoverEngine answers three relations over a registered filter set,
// partitioned per interned attribute (same AttrTable as MatchIndex):
//
//   covers_of(F)     — registered G with G.covers(F)
//   covered_by_of(F) — registered G with F.covers(G)
//   overlapping(F)   — registered G with F.overlaps(G)
//
// using the MatchIndex idioms: per-attribute equality buckets keyed by
// normalized operand, sorted lo/hi bound lists probed as prefix scans, a
// catch-all exact-evaluation lane for the rest, and epoch-stamped
// per-slot counters so no query clears O(entries) state. Every lane
// narrows candidates by bound order and then confirms with the *exact*
// oracle (Constraint::covers / matches / overlaps), so results are
// definitionally identical to the linear scans — the bound lists only
// bound where the scan may stop early.
//
// The CoverIndex wraps the engine with the broker's four planes (remote
// routing tables, local subscriptions, virtual counterparts, LD transit
// state), maintained incrementally alongside MatchIndex at every table
// mutation, plus an inverted tag index (SubKey → serving links) so
// junction detection needs no table scan at all.
#ifndef REBECA_ROUTING_COVER_INDEX_HPP
#define REBECA_ROUTING_COVER_INDEX_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/routing/strategy.hpp"
#include "src/util/domain_ids.hpp"

namespace rebeca::routing {

/// Covering/overlap queries over a set of registered filters. Filters
/// are registered by stable pointer — the caller owns the storage and
/// guarantees the pointee neither moves nor mutates while registered
/// (map keys and node-based record fields qualify).
class CoverEngine {
 public:
  /// Registers a filter; returns its slot. Requires a finalized engine
  /// (incremental adds keep the bound lists sorted).
  std::uint32_t add(const filter::Filter* f);
  /// Bulk registration: appends without sorting; call finalize() before
  /// querying. Cheaper than add() when building from scratch.
  std::uint32_t add_bulk(const filter::Filter* f);
  void finalize();
  void remove(std::uint32_t slot);

  [[nodiscard]] const filter::Filter* filter_of(std::uint32_t slot) const {
    return entries_[slot].f;
  }
  [[nodiscard]] std::size_t live() const { return live_entries_; }

  /// Slots whose filter covers `f`, ascending. (The empty filter is
  /// covered only by the empty filter.)
  void covers_of(const filter::Filter& f, std::vector<std::uint32_t>& out) const;
  /// Slots whose filter `f` covers, ascending. (An empty `f` covers
  /// every registered filter.)
  void covered_by_of(const filter::Filter& f,
                     std::vector<std::uint32_t>& out) const;
  /// Slots whose filter overlaps `f`, ascending: computed by proving the
  /// complement (a shared attribute whose constraints are disjoint).
  void overlapping(const filter::Filter& f,
                   std::vector<std::uint32_t>& out) const;

 private:
  struct Entry {
    const filter::Filter* f = nullptr;
    bool alive = false;
  };

  // Normalized equality-bucket key: identical to MatchIndex's. Numerics
  // normalize to double so cross-type equality (1 == 1.0) shares a
  // bucket; items keep the exact operand and re-verify on probe where
  // the double key is lossy (huge int64s).
  struct EqKey {
    int cls = 0;  // 0 numeric, 1 string, 2 bool
    double num = 0;
    std::string str;
    bool b = false;
  };

  struct EqKeyLess {
    using is_transparent = void;

    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.cls != b.cls) return a.cls < b.cls;
      switch (a.cls) {
        case 0: return a.num < b.num;
        case 1: return a.str < b.str;
        default: return a.b < b.b;
      }
    }
  };

  struct EqItem {
    filter::Value operand;
    std::uint32_t slot;
  };

  struct EqBucket {
    std::vector<std::uint32_t> exact_slots;
    std::vector<filter::Value> exact_operands;  // parallel; lossy-probe path
    std::vector<EqItem> inexact;
  };

  /// One registered ordered constraint (lt/le/gt/ge/range over a
  /// non-bool operand). The constraint is borrowed from the registered
  /// filter's term storage; lists are sorted by the bound that lets a
  /// probe scan exactly the admissible prefix.
  struct BoundItem {
    const filter::Constraint* c = nullptr;
    std::uint32_t slot = 0;
  };

  struct GeneralItem {
    const filter::Constraint* c = nullptr;
    std::uint32_t slot = 0;
  };

  struct Bucket {
    std::vector<std::uint32_t> any_slots;  // Op::any terms
    std::map<EqKey, EqBucket, EqKeyLess> eq;
    std::vector<BoundItem> num_lo;  // gt/ge/range, ascending by lo
    std::vector<BoundItem> num_hi;  // lt/le, descending by hi
    std::vector<BoundItem> str_lo;
    std::vector<BoundItem> str_hi;
    std::vector<GeneralItem> general;  // ne/prefix/in_set/ordered-on-bool
  };

  std::uint32_t add_entry(const filter::Filter* f, bool sorted);
  void index_term(const filter::Filter::Term& term, std::uint32_t slot,
                  bool sorted);
  void unindex_term(const filter::Filter::Term& term, std::uint32_t slot);
  void begin_query() const;
  void bump(std::uint32_t slot) const;
  void mark(std::uint32_t slot) const;
  void emit_full(std::vector<std::uint32_t>& out) const;
  void emit_unmarked(std::vector<std::uint32_t>& out) const;

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> term_counts_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_entries_ = 0;
  std::vector<std::uint32_t> empty_filter_slots_;

  std::vector<Bucket> buckets_;  // indexed by AttrId value
  bool finalized_ = true;

  // Query scratch: epoch-stamped per-slot counters (MatchIndex idiom).
  struct Hit {
    std::uint64_t stamp = 0;
    std::uint32_t count = 0;
  };
  mutable std::vector<Hit> hits_;
  mutable std::vector<std::uint32_t> touched_;
  mutable std::uint64_t query_stamp_ = 0;
  mutable std::vector<std::uint32_t> probe_scratch_;
};

/// The broker-facing covering index: CoverEngine plus the four broker
/// planes and the consumer-shaped queries the admin plane asks.
/// Maintained next to MatchIndex at every table mutation; the broker's
/// only admin plane (tests re-run the linear scans as its oracle).
class CoverIndex {
 public:
  // --- remote plane: routing-table entries, keyed (link, filter) ---
  /// Insert or tag-replace one remote entry (the DiffProgram upsert).
  void upsert_remote(LinkId link, const filter::Filter& f,
                     const std::set<SubKey>& tags);
  /// Drop one key from a remote entry's tag set (moveout untag).
  void untag_remote(LinkId link, const filter::Filter& f, const SubKey& key);
  void remove_remote(LinkId link, const filter::Filter& f);

  // --- exactly-keyed planes (upsert replaces the key's filter) ---
  void upsert_local(const SubKey& key, const filter::Filter& f, bool ld);
  void remove_local(const SubKey& key);
  void upsert_virtual(const SubKey& key, const filter::Filter& f, bool ld);
  void remove_virtual(const SubKey& key);
  void upsert_transit(const SubKey& key, LinkId toward,
                      const filter::Filter& f);
  void remove_transit(const SubKey& key);

  [[nodiscard]] std::size_t entry_count() const { return engine_.live(); }

  // --- consumer queries (each reproduces one linear admin scan) ---

  /// The forward-set inputs (excluding `exclude` and LD state) strictly
  /// covered by `f`, identity-collapsed: byte-identical to
  /// routing::covered_by(f, identity-collapse(collect_inputs)).
  [[nodiscard]] ForwardSet covered_inputs(const filter::Filter& f,
                                          LinkId exclude) const;

  /// Links (≠ exclude) whose routing table holds an entry covering `f`,
  /// ascending — the dispatch_fetch/on_fetch covering fallback.
  void covering_links(const filter::Filter& f, LinkId exclude,
                      std::vector<LinkId>& out) const;

  /// Links (≠ exclude) whose routing table holds an entry tagged with
  /// `key`, ascending — the dispatch_fetch/on_fetch tagged junction
  /// probe. Served by the inverted tag index, no filter query at all.
  void links_serving(const SubKey& key, LinkId exclude,
                     std::vector<LinkId>& out) const;

  /// The entries of `link`'s table tagged with `key`, in Filter order
  /// with their tag counts — exactly what plan_moveout consumes.
  [[nodiscard]] std::vector<MoveoutCandidate> tagged_filters(
      LinkId link, const SubKey& key) const;

  /// Registered filters overlapping `f` across all planes, deduped by
  /// structural identity. No broker consumer yet — the subgrouping
  /// strategy (ROADMAP) clusters by overlap; tests exercise it now.
  [[nodiscard]] std::vector<filter::Filter> overlapping_filters(
      const filter::Filter& f) const;

 private:
  enum class Source : std::uint8_t { remote, transit, local, virt };

  struct RemoteRec {
    std::uint32_t slot = 0;
    std::set<SubKey> tags;
  };

  struct KeyedRec {
    std::uint32_t slot = 0;
    filter::Filter f;
    bool ld = false;
    LinkId toward;
  };

  /// Slot → plane handle. `tags` borrows the RemoteRec's set (node-based
  /// map storage, address-stable); pointer-valued only, never ordered on.
  struct SlotInfo {
    Source source = Source::remote;
    LinkId link;
    SubKey key;
    bool ld = false;
    const std::set<SubKey>* tags = nullptr;
  };

  void set_info(std::uint32_t slot, SlotInfo info);
  void upsert_keyed(std::map<SubKey, KeyedRec>& plane, Source source,
                    const SubKey& key, const filter::Filter& f, bool ld,
                    LinkId toward);
  void remove_keyed(std::map<SubKey, KeyedRec>& plane, const SubKey& key);
  void tag_link(const SubKey& key, LinkId link);
  void untag_link(const SubKey& key, LinkId link);

  CoverEngine engine_;
  std::map<LinkId, std::map<filter::Filter, RemoteRec>> remote_;
  std::map<SubKey, KeyedRec> local_;
  std::map<SubKey, KeyedRec> virtual_;
  std::map<SubKey, KeyedRec> transit_;
  std::vector<SlotInfo> info_;
  /// key → (link → number of that link's entries tagged with key).
  std::map<SubKey, std::map<LinkId, std::size_t>> tag_links_;
  mutable std::vector<std::uint32_t> query_scratch_;
};

}  // namespace rebeca::routing

#endif  // REBECA_ROUTING_COVER_INDEX_HPP
