// Incremental counting match index: the broker's notification data plane.
//
// route_notification historically matched every notification by four
// linear scans — remote forward sets (per neighbor link), local client
// subscriptions, virtual counterparts, and LD transit state — O(filters)
// Filter::matches calls per hop. The MatchIndex replaces all four with
// one counting query:
//
//   * every filter in any of the four planes is one *entry*, registered
//     incrementally as the broker's tables change (the DiffProgram
//     upsert/prune stream feeds the remote plane; session/virtual/LD
//     lifecycle feeds the rest);
//   * each entry's constraints are decomposed into per-attribute buckets:
//     equality postings keyed by (normalized) operand value, ordered
//     bound lists for interval-shaped constraints (sorted by lower
//     bound, probed by prefix), and a catch-all list for the rest
//     (any/ne/prefix), evaluated by Constraint::matches;
//   * an eq term posts its operand and an in_set term posts each member
//     under the member's equality key, so a set-membership probe is one
//     map lookup. A term bumps its entry at most once per query: members
//     sharing a key (1 and 1.0) post once, and an in_set holding a member
//     whose key is lossy (int64 beyond ±2^53) or unordered (NaN) stays on
//     the catch-all list;
//   * a query walks the notification's attributes once, bumps a
//     per-entry hit counter for every satisfied constraint (epoch
//     stamps, so no O(entries) clear per query), and emits the entries
//     whose count equals their constraint count — plus the empty
//     filters, which match everything;
//   * a notification carrying a NaN value (equal to every number, which
//     no key or bound order expresses) is matched by Filter::matches
//     over the live entries instead.
//
// The result is a MatchHits of destination handles per plane; the broker
// orders them canonically (links in attach order, local subs and
// virtuals in key order). The index is the broker's only data plane; the
// linear scans it replaced live on as test oracles (match_index_test's
// mirror, matcher_equivalence_test's per-broker audit).
#ifndef REBECA_ROUTING_MATCH_INDEX_HPP
#define REBECA_ROUTING_MATCH_INDEX_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/routing/eq_key.hpp"
#include "src/util/domain_ids.hpp"

namespace rebeca::routing {

/// One query's matches, by destination plane. links carries remote and
/// LD-transit matches (the per-link forward decision); locals and
/// virtuals carry subscription keys. All three are sorted and deduped.
struct MatchHits {
  std::vector<LinkId> links;
  std::vector<SubKey> locals;
  std::vector<SubKey> virtuals;

  void clear() {
    links.clear();
    locals.clear();
    virtuals.clear();
  }
};

class MatchIndex {
 public:
  // --- remote plane: routing-table entries, keyed (link, filter) ---
  void add_remote(LinkId link, const filter::Filter& f);
  void remove_remote(LinkId link, const filter::Filter& f);

  // --- exactly-keyed planes: upsert replaces the key's previous filter ---
  void upsert_local(const SubKey& key, const filter::Filter& f);
  void remove_local(const SubKey& key);
  void upsert_virtual(const SubKey& key, const filter::Filter& f);
  void remove_virtual(const SubKey& key);
  void upsert_transit(const SubKey& key, LinkId toward,
                      const filter::Filter& f);
  void remove_transit(const SubKey& key);

  /// Counting query: fills `out` (cleared first) with every matching
  /// destination, sorted and deduped per plane.
  void collect(const filter::Notification& n, MatchHits& out) const;

  [[nodiscard]] std::size_t entry_count() const { return live_entries_; }

 private:
  enum class Source : std::uint8_t { remote, transit, local, virt };

  struct Entry {
    Source source = Source::remote;
    LinkId link;  // remote: the table's link; transit: toward
    SubKey key;   // local / virt / transit
    filter::Filter f;
    bool alive = false;
  };

  using EqKey = detail::EqKey;
  using EqKeyLess = detail::EqKeyLess;

  /// Borrowed probe key: a collect() lookup must not copy the
  /// notification's string attribute per probe.
  struct EqProbe {
    int cls = 0;
    double num = 0;
    std::string_view str;
    bool b = false;
  };

  struct EqItem {
    filter::Value operand;
    std::uint32_t slot;
  };

  /// One equality bucket. Operands whose normalized key decides equality
  /// exactly (strings, bools, doubles, int64s within ±2^53) live in dense
  /// slot lists swept without per-item verification; only huge int64s —
  /// where the double key is lossy — pay a Value::equals each. A lossy
  /// probe (a huge int64) equals every double under its key and none of
  /// the exact ints, so the ints get their own list and no operand copy.
  struct EqBucket {
    std::vector<std::uint32_t> slots;      // doubles, strings, bools
    std::vector<std::uint32_t> int_slots;  // int64s within ±2^53
    std::vector<EqItem> inexact;           // int64s beyond ±2^53
  };

  /// Interval-shaped constraint (lt/le/gt/ge/range) over one ordered
  /// domain. Lower-bounded intervals live in a list sorted ascending by
  /// lo; upper-only intervals (lt/le) in a list sorted descending by hi.
  /// Either way a probe scans exactly the prefix its value admits and
  /// stops at the first bound that excludes it.
  struct Interval {
    bool has_lo = false, has_hi = false;
    bool lo_strict = false, hi_strict = false;
    filter::Value lo, hi;
    std::uint32_t slot = 0;
  };

  struct GeneralItem {
    filter::Constraint c;
    std::uint32_t slot;
  };

  struct Bucket {
    std::map<EqKey, EqBucket, EqKeyLess> eq;
    std::vector<Interval> num_lo;  // has_lo, ascending by lo
    std::vector<Interval> num_hi;  // upper-only, descending by hi
    std::vector<Interval> str_lo;
    std::vector<Interval> str_hi;
    std::vector<GeneralItem> general;
  };

  std::uint32_t add_entry(Entry entry);
  void remove_entry(std::uint32_t slot);
  void index_term(const filter::Filter::Term& term, std::uint32_t slot);
  void unindex_term(const filter::Filter::Term& term, std::uint32_t slot);
  static EqProbe probe_of(const filter::Value& v);
  static void post_eq(Bucket& b, const filter::Value& operand,
                      std::uint32_t slot);
  static void unpost_eq(Bucket& b, const filter::Value& operand,
                        std::uint32_t slot);
  void upsert_keyed(std::map<SubKey, std::uint32_t>& slots, Entry entry);
  void remove_keyed(std::map<SubKey, std::uint32_t>& slots, const SubKey& key);
  void bump(std::uint32_t slot) const;
  /// NaN compares equal to every number (Value::compare), which neither
  /// the equality keys nor the ordered bound lists can express. For a
  /// notification with a NaN on an indexed attribute, collect() replaces
  /// its partial counts with Filter::matches over the live non-empty
  /// entries, recorded as complete counts.
  void count_exact_matches(const filter::Notification& n) const;
  static bool interval_admits(const Interval& iv, const filter::Value& v);

  std::vector<Entry> entries_;
  /// Per-slot constraint counts, compact so the match pass over touched
  /// slots stays off the fat Entry records.
  std::vector<std::uint32_t> term_counts_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_entries_ = 0;
  std::vector<std::uint32_t> empty_filter_slots_;  // always-match entries

  std::map<LinkId, std::map<filter::Filter, std::uint32_t>> remote_slots_;
  std::map<SubKey, std::uint32_t> local_slots_;
  std::map<SubKey, std::uint32_t> virtual_slots_;
  std::map<SubKey, std::uint32_t> transit_slots_;

  std::vector<Bucket> buckets_;  // indexed by AttrId value

  // Query scratch: epoch-stamped per-entry counters (fused into one
  // record per entry — a bump touches a single cache line), so a query
  // touches only the entries its notification's attributes reach.
  struct Hit {
    std::uint64_t stamp = 0;
    std::uint32_t count = 0;
  };
  mutable std::vector<Hit> hits_;
  mutable std::vector<std::uint32_t> touched_;
  mutable std::uint64_t query_stamp_ = 0;
};

}  // namespace rebeca::routing

#endif  // REBECA_ROUTING_MATCH_INDEX_HPP
