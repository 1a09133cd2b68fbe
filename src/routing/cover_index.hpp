// Incremental counting covering index: the broker's admin plane.
//
// The admin-side relations of the relocation protocol — covering
// collapse of forward sets, the covered filters a moveout must
// re-expose, and the covering fallback of junction detection — would
// each evaluate Filter::covers against every table entry. Those run on
// exactly the events the mobility protocol multiplies (subscription
// churn, moveto/moveout bursts, fetch relocation), and they dominate
// once routing tables grow.
//
// The CoverEngine answers two relations over a registered filter set,
// partitioned per interned attribute (same AttrTable as MatchIndex):
//
//   covers_of(F)     — registered G with G.covers(F)
//   covered_by_of(F) — registered G with F.covers(G)
//
// using the MatchIndex idioms: per-attribute equality buckets keyed by
// normalized operand, sorted lo/hi bound lists probed as prefix scans, a
// catch-all exact-evaluation lane for the rest, and epoch-stamped
// per-slot counters so no query clears O(entries) state. Every lane
// narrows candidates by bound order and then confirms with the *exact*
// oracle (Constraint::covers / matches), so results are definitionally
// identical to the linear scans — the bound lists only bound where the
// scan may stop early.
//
// The CoverIndex wraps the engine with exactly the broker's forward-set
// inputs (paper Sec. 4.2): remote routing-table entries, non-LD local
// subscriptions and non-LD virtual counterparts. Location-dependent
// state travels on its own plane (Sec. 5) and is never registered. The
// index is the broker's only copy of these inputs (forward_inputs feeds
// refresh_link), maintained at every table mutation, plus an inverted
// tag index (SubKey → serving links) so junction detection needs no
// table scan at all.
#ifndef REBECA_ROUTING_COVER_INDEX_HPP
#define REBECA_ROUTING_COVER_INDEX_HPP

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/routing/eq_key.hpp"
#include "src/routing/strategy.hpp"
#include "src/util/domain_ids.hpp"

namespace rebeca::routing {

/// Covering queries over a set of registered filters. Filters are
/// registered by stable pointer — the caller owns the storage and
/// guarantees the pointee neither moves nor mutates while registered
/// (map keys and node-based record fields qualify).
class CoverEngine {
 public:
  /// Registers a filter; returns its slot.
  std::uint32_t add(const filter::Filter* f);
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

 private:
  struct Entry {
    const filter::Filter* f = nullptr;
    bool alive = false;
  };

  // Normalized equality-bucket key, shared with MatchIndex: items keep
  // the exact operand and re-verify on probe where the double key is
  // lossy (huge int64s).
  using EqKey = detail::EqKey;
  using EqKeyLess = detail::EqKeyLess;

  struct EqItem {
    filter::Value operand;
    std::uint32_t slot;
  };

  struct EqBucket {
    std::vector<std::uint32_t> exact_slots;
    std::vector<filter::Value> exact_operands;  // parallel; lossy-probe path
    std::vector<EqItem> inexact;
  };

  /// One registered constraint, borrowed from the registered filter's
  /// term storage. In a bound list (lt/le/gt/ge/range over a non-bool
  /// operand) the list is sorted by the bound that lets a probe scan
  /// exactly the admissible prefix.
  struct Item {
    const filter::Constraint* c = nullptr;
    std::uint32_t slot = 0;
  };

  struct Bucket {
    std::vector<std::uint32_t> any_slots;  // Op::any terms
    std::map<EqKey, EqBucket, EqKeyLess> eq;
    std::vector<Item> num_lo;  // gt/ge/range, ascending by lo
    std::vector<Item> num_hi;  // lt/le, descending by hi
    std::vector<Item> str_lo;
    std::vector<Item> str_hi;
    std::vector<Item> general;  // ne/prefix/in_set/ordered-on-bool
  };

  void index_term(const filter::Filter::Term& term, std::uint32_t slot);
  void unindex_term(const filter::Filter::Term& term, std::uint32_t slot);
  void begin_query() const;
  void bump(std::uint32_t slot) const;
  void emit_full(std::vector<std::uint32_t>& out) const;

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> term_counts_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_entries_ = 0;
  std::vector<std::uint32_t> empty_filter_slots_;

  std::vector<Bucket> buckets_;  // indexed by AttrId value

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

/// The broker-facing covering index: CoverEngine over the forward-set
/// inputs plus the consumer-shaped queries the admin plane asks.
/// Maintained at every table mutation; the broker's only copy of the
/// inputs and its only admin plane (tests re-run the linear scans as its
/// oracle).
class CoverIndex {
 public:
  // --- remote plane: routing-table entries, keyed (link, filter) ---
  /// Insert or tag-replace one remote entry (the DiffProgram upsert).
  void upsert_remote(LinkId link, const filter::Filter& f,
                     const std::set<SubKey>& tags);
  /// Drop one key from a remote entry's tag set (moveout untag).
  void untag_remote(LinkId link, const filter::Filter& f, const SubKey& key);
  void remove_remote(LinkId link, const filter::Filter& f);

  // --- exactly-keyed planes (upsert replaces the key's filter); the
  // --- broker registers non-LD subscriptions only ---
  void upsert_local(const SubKey& key, const filter::Filter& f);
  void remove_local(const SubKey& key);
  void upsert_virtual(const SubKey& key, const filter::Filter& f);
  void remove_virtual(const SubKey& key);

  [[nodiscard]] std::size_t entry_count() const { return engine_.live(); }

  // --- consumer queries ---

  /// The forward-set inputs toward `exclude`: every remote entry of the
  /// other links (link order, then Filter order, with its tags), then
  /// the local subscriptions, then the virtual counterparts (key order,
  /// each tagged with its own key) — refresh_link's input list.
  [[nodiscard]] std::vector<ForwardInput> forward_inputs(LinkId exclude) const;

  /// The forward-set inputs (excluding `exclude`) strictly covered by
  /// `f`, identity-collapsed: byte-identical to
  /// routing::covered_by(f, identity-collapse(forward_inputs(exclude))).
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

 private:
  enum class Source : std::uint8_t { remote, local, virt };

  struct RemoteRec {
    std::uint32_t slot = 0;
    std::set<SubKey> tags;
  };

  struct KeyedRec {
    std::uint32_t slot = 0;
    filter::Filter f;
  };

  /// Slot → plane handle. `tags` borrows the RemoteRec's set (node-based
  /// map storage, address-stable); pointer-valued only, never ordered on.
  struct SlotInfo {
    Source source = Source::remote;
    LinkId link;
    SubKey key;
    const std::set<SubKey>* tags = nullptr;
  };

  void set_info(std::uint32_t slot, SlotInfo info);
  void upsert_keyed(std::map<SubKey, KeyedRec>& plane, Source source,
                    const SubKey& key, const filter::Filter& f);
  void remove_keyed(std::map<SubKey, KeyedRec>& plane, const SubKey& key);
  void tag_link(const SubKey& key, LinkId link);
  void untag_link(const SubKey& key, LinkId link);

  CoverEngine engine_;
  std::map<LinkId, std::map<filter::Filter, RemoteRec>> remote_;
  std::map<SubKey, KeyedRec> local_;
  std::map<SubKey, KeyedRec> virtual_;
  std::vector<SlotInfo> info_;
  /// key → (link → number of that link's entries tagged with key).
  std::map<SubKey, std::map<LinkId, std::size_t>> tag_links_;
  mutable std::vector<std::uint32_t> query_scratch_;
};

}  // namespace rebeca::routing

#endif  // REBECA_ROUTING_COVER_INDEX_HPP
