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
// subscriptions and non-LD virtual counterparts. Its remote plane *is*
// the broker's routing table — one per neighbour link, as in Sec. 2.2 —
// and the broker keeps no other copy. Location-dependent state travels
// on its own plane (Sec. 5) and is never registered. The index stores
// each distinct input filter once, with its sources, plus
// an inverted tag index (SubKey → serving links) so junction detection
// needs no table scan at all. It also keeps one forward view per broker
// link: the elected (forwarded) filters toward that link under the
// routing strategy, updated incrementally at every table mutation, and
// a dirty set of the filters whose forwarded entry changed. refresh_link
// sends only the dirty filters' changes; nothing recomputes a forward
// set from scratch.
#ifndef REBECA_ROUTING_COVER_INDEX_HPP
#define REBECA_ROUTING_COVER_INDEX_HPP

#include <cstdint>
#include <map>
#include <set>
#include <utility>
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

/// The broker-facing covering index: CoverEngine over the distinct
/// forward-set input filters, the consumer-shaped queries the admin plane
/// asks, and one persistent forward view per broker link. Maintained at
/// every table mutation; the broker's routing table, its only copy of
/// the inputs and its only admin plane (tests re-run the linear scans as
/// its oracle).
class CoverIndex {
 public:
  /// `strategy` decides which of a view's filters are *elected* (see
  /// add_view).
  explicit CoverIndex(Strategy strategy = Strategy::covering);

  // --- remote plane: the routing table, keyed (link, filter); each
  // --- mutator reports what the broker mirrors into MatchIndex ---
  /// Inserts or tag-replaces one entry (the DiffProgram upsert); true
  /// when (link, f) is new.
  bool upsert_remote(LinkId link, const filter::Filter& f,
                     const std::set<SubKey>& tags);
  /// Drops `key` from the entry's tags (a moveout untag or prune), and
  /// the entry itself with its last tag; true when the entry went. An
  /// absent entry or key is no change: an UnsubscribeMsg may have
  /// removed the entry before a deferred prune runs.
  bool untag_remote(LinkId link, const filter::Filter& f, const SubKey& key);
  /// True when the entry existed.
  bool remove_remote(LinkId link, const filter::Filter& f);

  /// One link's routing table: its entries with their tags.
  [[nodiscard]] ForwardSet remote_table(LinkId link) const;
  /// Routing-table entries, and their tags, across all links.
  [[nodiscard]] std::size_t remote_entry_count() const {
    return sources_ - local_.size() - virtual_.size();
  }
  [[nodiscard]] std::size_t remote_tag_count() const;

  // --- exactly-keyed planes (upsert replaces the key's filter); the
  // --- broker registers non-LD subscriptions only ---
  void upsert_local(const SubKey& key, const filter::Filter& f);
  void remove_local(const SubKey& key);
  void upsert_virtual(const SubKey& key, const filter::Filter& f);
  void remove_virtual(const SubKey& key);

  /// Registered inputs: remote entries, local subscriptions and virtual
  /// counterparts.
  [[nodiscard]] std::size_t entry_count() const { return sources_; }

  // --- consumer queries ---

  /// The forward-set inputs (excluding `exclude`) strictly covered by
  /// `f`, identity-collapsed: byte-identical to routing::covered_by(f,
  /// identity collapse of the inputs toward `exclude`).
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

  // --- per-link forward views ---
  //
  // A view holds the inputs toward one link — every input but that
  // link's own routing-table entries — as distinct filters with their
  // unioned tags, and *elects* some of them: none under flooding, all
  // under simple/identity, the ≻-maximal ones under covering/merging
  // (g ≻ f: g covers f, strictly or as the Filter-smaller of a mutually
  // covering pair — the tie-break of compute_forward_set). A new filter
  // is dominated by an elected one or is elected and evicts the members
  // it dominates; a removed member re-elects, by the same rule, the
  // filters it covered. Every change of the elected set, or of an
  // elected filter's tags, marks that filter dirty, so a consumer that
  // reconciles the dirty filters keeps a forwarded copy equal to the
  // elected set without ever recomputing it. Views borrow the index's
  // one copy of each filter and query its one engine.

  /// One filter of a view: whether it is elected, and its tags toward
  /// the link (empty when the view does not hold it). `f` borrows the
  /// index's storage (or the queried filter) until the next mutation or
  /// clear_dirty.
  struct ViewEntry {
    const filter::Filter* f = nullptr;
    bool elected = false;
    std::set<SubKey> tags;
  };

  /// Registers the forward view of `link`, electing the inputs already
  /// present (each marked dirty).
  void add_view(LinkId link);

  /// The view's forward set: its elected filters with their tags, merged
  /// to fixpoint under merging — compute_forward_set over the inputs
  /// toward `link`.
  [[nodiscard]] ForwardSet forward_set(LinkId link) const;

  /// The view's dirty filters, in Filter order.
  [[nodiscard]] std::vector<ViewEntry> dirty(LinkId link) const;
  /// The view's entry for `f`.
  [[nodiscard]] ViewEntry entry(LinkId link, const filter::Filter& f) const;
  /// The view's elected filters covering `f`.
  void elected_covering(LinkId link, const filter::Filter& f,
                        std::vector<ViewEntry>& out) const;

  /// Marks one input filter dirty (no-op for a filter the index does
  /// not hold), or every filter the view holds.
  void mark_dirty(LinkId link, const filter::Filter& f);
  void mark_all_dirty(LinkId link);
  /// Empties the view's dirty set (the consumer reconciled it).
  void clear_dirty(LinkId link);

 private:
  /// One distinct input filter — the index's only copy of it — with the
  /// sources registering it and the views electing it. Small vectors:
  /// a filter has few sources and a broker few links.
  struct Distinct {
    const filter::Filter* f = nullptr;  // its own distinct_ key
    std::uint32_t slot = 0;             // in engine_, while it has sources
    std::uint32_t dirty_marks = 0;      // views whose dirty set holds it
    /// Routing-table entries: link (ascending) → the entry's tags.
    std::vector<std::pair<LinkId, std::set<SubKey>>> remote;
    /// Local and virtual keys (a key may register it in both planes).
    std::vector<SubKey> keyed;
    std::vector<LinkId> elected;  // views electing it

    [[nodiscard]] bool has_source() const {
      return !remote.empty() || !keyed.empty();
    }
    [[nodiscard]] std::set<SubKey>* remote_tags(LinkId link);
    [[nodiscard]] const std::set<SubKey>* remote_tags(LinkId link) const;
    /// Whether the inputs toward `link` include this filter.
    [[nodiscard]] bool present(LinkId link) const;
    [[nodiscard]] bool is_elected(LinkId link) const;
    /// The union of its inputs' tags toward `link`.
    [[nodiscard]] std::set<SubKey> tags(LinkId link) const;
  };

  /// A Distinct ordered by its filter's value, never by address.
  struct Ref {
    Distinct* d = nullptr;
    friend bool operator<(const Ref& a, const Ref& b) {
      return *a.d->f < *b.d->f;
    }
  };

  Distinct& acquire(const filter::Filter& f);
  Distinct* find(const filter::Filter& f);
  /// Applies `mutate`, a change of d's sources, and moves engine_ and
  /// every view along (see cover_index.cpp).
  template <typename Mutate>
  void change_sources(Distinct& d, LinkId except, Mutate mutate);
  void elect(LinkId link, std::set<Ref>& dirty, Distinct& d);
  void unelect(LinkId link, std::set<Ref>& dirty, Distinct& d);
  static void mark(std::set<Ref>& dirty, Distinct& d);
  void release(Distinct& d);
  void untag_link(const SubKey& key, LinkId link);
  void upsert_keyed(std::map<SubKey, Distinct*>& plane, const SubKey& key,
                    const filter::Filter& f);
  void remove_keyed(std::map<SubKey, Distinct*>& plane, const SubKey& key);
  [[nodiscard]] ViewEntry view_entry(LinkId link, const Distinct& d) const;

  Strategy strategy_;
  CoverEngine engine_;             // every distinct filter with a source
  std::vector<Distinct*> owners_;  // engine_ slot → filter
  std::map<filter::Filter, Distinct> distinct_;
  std::map<SubKey, Distinct*> local_;
  std::map<SubKey, Distinct*> virtual_;
  /// key → (link → number of that link's entries tagged with key).
  std::map<SubKey, std::map<LinkId, std::size_t>> tag_links_;
  /// One per view: link → its dirty filters.
  std::map<LinkId, std::set<Ref>> views_;
  std::size_t sources_ = 0;
  mutable std::vector<std::uint32_t> query_scratch_;
  std::vector<std::uint32_t> elect_scratch_;
};

}  // namespace rebeca::routing

#endif  // REBECA_ROUTING_COVER_INDEX_HPP
