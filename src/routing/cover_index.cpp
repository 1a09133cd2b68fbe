#include "src/routing/cover_index.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "src/util/assert.hpp"

namespace rebeca::routing {

namespace {

using filter::Constraint;
using filter::Filter;
using filter::Op;
using filter::Value;
using detail::bound_less;
using detail::eq_key_exact;
using detail::eq_key_of;
using detail::value_class;

/// Smallest string strictly greater than every string with prefix `p`
/// (the Constraint::covers decision procedure uses the same bound).
std::optional<std::string> next_prefix(const std::string& p) {
  std::string q = p;
  for (auto it = q.rbegin(); it != q.rend(); ++it) {
    auto c = static_cast<unsigned char>(*it);
    if (c != 0xFF) {
      *it = static_cast<char>(c + 1);
      q.erase(q.size() - static_cast<std::size_t>(it - q.rbegin()));
      return q;
    }
  }
  return std::nullopt;
}

/// Degenerate range [a,a]: the covering oracle treats it as eq a, and so
/// must every witness-probe below.
bool is_point_range(const Constraint& c) {
  return c.op() == Op::range && c.operand().equals(c.hi());
}

/// Witness value of a singleton-shaped constraint (eq v / range [v,v]).
const Value* witness_of(const Constraint& c) {
  if (c.op() == Op::eq) return &c.operand();
  if (is_point_range(c)) return &c.operand();
  return nullptr;
}

/// Smallest / largest in_set member under numeric order, provided all
/// members share one ordered class (mixed-class sets cannot be matched
/// in full by any single ordered constraint, so bound lanes may skip).
struct SetSpan {
  const Value* min = nullptr;
  const Value* max = nullptr;
  int cls = 2;
};

std::optional<SetSpan> set_span(const std::set<Value>& values) {
  if (values.empty()) return std::nullopt;
  SetSpan span;
  span.cls = value_class(*values.begin());
  span.min = span.max = &*values.begin();
  for (const Value& v : values) {
    if (value_class(v) != span.cls) return std::nullopt;
    if (bound_less(v, *span.min)) span.min = &v;
    if (bound_less(*span.max, v)) span.max = &v;
  }
  return span;
}

}  // namespace

// ---------------------------------------------------------------------------
// CoverEngine: entry lifecycle
// ---------------------------------------------------------------------------

std::uint32_t CoverEngine::add(const filter::Filter* f) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    entries_[slot] = Entry{f, false};
  } else {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{f, false});
    hits_.push_back(Hit{});
    term_counts_.push_back(0);
  }
  Entry& e = entries_[slot];
  e.alive = true;
  term_counts_[slot] = static_cast<std::uint32_t>(f->size());
  ++live_entries_;
  if (f->empty()) {
    empty_filter_slots_.push_back(slot);
  } else {
    for (const auto& term : f->terms()) index_term(term, slot);
  }
  return slot;
}

void CoverEngine::remove(std::uint32_t slot) {
  Entry& e = entries_[slot];
  REBECA_ASSERT(e.alive, "cover index: double remove of slot " << slot);
  if (e.f->empty()) {
    std::erase(empty_filter_slots_, slot);
  } else {
    for (const auto& term : e.f->terms()) unindex_term(term, slot);
  }
  e.alive = false;
  e.f = nullptr;
  --live_entries_;
  free_slots_.push_back(slot);
}

void CoverEngine::index_term(const filter::Filter::Term& term,
                             std::uint32_t slot) {
  const std::uint32_t attr = term.attr.value();
  if (attr >= buckets_.size()) buckets_.resize(attr + 1);
  Bucket& b = buckets_[attr];
  const Constraint& c = term.c;

  switch (c.op()) {
    case Op::any:
      b.any_slots.push_back(slot);
      return;
    case Op::eq: {
      EqBucket& bucket = b.eq[eq_key_of(c.operand())];
      if (eq_key_exact(c.operand())) {
        bucket.exact_slots.push_back(slot);
        bucket.exact_operands.push_back(c.operand());
      } else {
        bucket.inexact.push_back(EqItem{c.operand(), slot});
      }
      return;
    }
    case Op::lt:
    case Op::le:
    case Op::gt:
    case Op::ge:
    case Op::range: {
      const int cls = value_class(c.operand());
      if (cls == 2) break;  // ordered ops on bools: catch-all below
      const Item item{&c, slot};
      const bool upper_only = c.op() == Op::lt || c.op() == Op::le;
      auto& list = upper_only ? (cls == 0 ? b.num_hi : b.str_hi)
                              : (cls == 0 ? b.num_lo : b.str_lo);
      if (upper_only) {
        // Upper-only bounds sort descending so a probe scans exactly the
        // prefix whose hi admits its value.
        const auto pos = std::lower_bound(
            list.begin(), list.end(), item, [](const Item& a, const Item& x) {
              return bound_less(x.c->operand(), a.c->operand());
            });
        list.insert(pos, item);
      } else {
        const auto pos = std::lower_bound(
            list.begin(), list.end(), item, [](const Item& a, const Item& x) {
              return bound_less(a.c->operand(), x.c->operand());
            });
        list.insert(pos, item);
      }
      return;
    }
    default:
      break;
  }
  // ne / prefix / in_set (and ordered-on-bool): exact evaluation.
  b.general.push_back(Item{&c, slot});
}

void CoverEngine::unindex_term(const filter::Filter::Term& term,
                               std::uint32_t slot) {
  REBECA_ASSERT(term.attr.value() < buckets_.size(),
                "cover index: unindex of unknown attr");
  Bucket& b = buckets_[term.attr.value()];
  const Constraint& c = term.c;

  const auto erase_slot = [slot](auto& list) {
    auto it = std::find_if(list.begin(), list.end(),
                           [slot](const auto& item) { return item.slot == slot; });
    REBECA_ASSERT(it != list.end(), "cover index: missing record for slot");
    list.erase(it);
  };

  switch (c.op()) {
    case Op::any:
      std::erase(b.any_slots, slot);
      return;
    case Op::eq: {
      auto it = b.eq.find(eq_key_of(c.operand()));
      REBECA_ASSERT(it != b.eq.end(), "cover index: missing eq bucket");
      EqBucket& bucket = it->second;
      if (eq_key_exact(c.operand())) {
        auto sit = std::find(bucket.exact_slots.begin(),
                             bucket.exact_slots.end(), slot);
        REBECA_ASSERT(sit != bucket.exact_slots.end(),
                      "cover index: missing eq record for slot");
        const auto i = sit - bucket.exact_slots.begin();
        bucket.exact_slots.erase(sit);
        bucket.exact_operands.erase(bucket.exact_operands.begin() + i);
      } else {
        erase_slot(bucket.inexact);
      }
      if (bucket.exact_slots.empty() && bucket.inexact.empty()) {
        b.eq.erase(it);
      }
      return;
    }
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

// ---------------------------------------------------------------------------
// CoverEngine: query plumbing
// ---------------------------------------------------------------------------

void CoverEngine::begin_query() const {
  ++query_stamp_;
  touched_.clear();
}

void CoverEngine::bump(std::uint32_t slot) const {
  Hit& h = hits_[slot];
  if (h.stamp != query_stamp_) {
    h.stamp = query_stamp_;
    h.count = 0;
    touched_.push_back(slot);
  }
  ++h.count;
}

void CoverEngine::emit_full(std::vector<std::uint32_t>& out) const {
  for (const std::uint32_t slot : touched_) {
    if (hits_[slot].count == term_counts_[slot]) out.push_back(slot);
  }
  out.insert(out.end(), empty_filter_slots_.begin(), empty_filter_slots_.end());
  std::sort(out.begin(), out.end());
}

// ---------------------------------------------------------------------------
// covers_of: registered G with G.covers(F)
// ---------------------------------------------------------------------------
//
// Counting over F's terms: a registered term on attribute a is bumped
// when it covers F's constraint on a; G covers F iff *every* G term is
// bumped (plus the empty filters, which cover everything). Each lane
// narrows by bound order, then confirms with the exact oracle — only
// the scan *stop* conditions use the index structure.

void CoverEngine::covers_of(const filter::Filter& f,
                            std::vector<std::uint32_t>& out) const {
  begin_query();
  out.clear();

  for (const auto& term : f.terms()) {
    const std::uint32_t attr = term.attr.value();
    if (attr >= buckets_.size()) continue;
    const Bucket& b = buckets_[attr];
    const Constraint& cf = term.c;

    // `any` terms cover every inner constraint.
    for (const std::uint32_t slot : b.any_slots) bump(slot);
    if (cf.op() == Op::any) continue;  // ...and only they cover `any`.

    // Equality lane: a registered eq(v) covers cf iff cf is
    // witness-shaped and v matches every witness. One normalized probe
    // finds the only bucket a matching v can live in; items re-verify
    // with Value::equals where the double key is lossy.
    if (!b.eq.empty()) {
      const Value* w = witness_of(cf);
      const Value* probe = w;
      if (w == nullptr && cf.op() == Op::in_set && !cf.values().empty()) {
        probe = &*cf.values().begin();  // all-match ⟹ shared bucket key
      }
      if (probe != nullptr) {
        auto it = b.eq.find(eq_key_of(*probe));
        if (it != b.eq.end()) {
          const EqBucket& bucket = it->second;
          if (w != nullptr) {
            if (eq_key_exact(*w)) {
              for (const std::uint32_t slot : bucket.exact_slots) bump(slot);
            } else {
              for (std::size_t i = 0; i < bucket.exact_slots.size(); ++i) {
                if (w->equals(bucket.exact_operands[i])) {
                  bump(bucket.exact_slots[i]);
                }
              }
            }
            for (const EqItem& item : bucket.inexact) {
              if (w->equals(item.operand)) bump(item.slot);
            }
          } else {
            // in_set: eq(v) covers iff every member equals v. Verify per
            // item — Value::equals is not transitive across lossy
            // int64s, so no member-set shortcut is sound.
            const auto all_equal = [&](const Value& v) {
              return std::all_of(cf.values().begin(), cf.values().end(),
                                 [&](const Value& m) { return m.equals(v); });
            };
            for (std::size_t i = 0; i < bucket.exact_slots.size(); ++i) {
              if (all_equal(bucket.exact_operands[i])) {
                bump(bucket.exact_slots[i]);
              }
            }
            for (const EqItem& item : bucket.inexact) {
              if (all_equal(item.operand)) bump(item.slot);
            }
          }
        }
      }
    }

    // Bound lanes: a lower-bounded G term (gt/ge/range) can cover cf
    // only if its lo does not exceed cf's minimum admitted value m —
    // the ascending lo list is scanned up to m and confirmed exactly.
    // Symmetrically, an upper-only G term (lt/le) needs hi ≥ cf's
    // maximum admitted value M on the descending hi list.
    std::optional<SetSpan> span;
    if (cf.op() == Op::in_set) span = set_span(cf.values());

    const Value* m = nullptr;  // min admitted by cf (probe for lo lists)
    const Value* M = nullptr;  // max admitted by cf (probe for hi lists)
    Value np_value;            // storage for the prefix upper bound
    int probe_cls = 2;
    switch (cf.op()) {
      case Op::eq:
        m = M = &cf.operand();
        probe_cls = value_class(cf.operand());
        break;
      case Op::in_set:
        if (span) {
          m = span->min;
          M = span->max;
          probe_cls = span->cls;
        }
        break;
      case Op::gt:
      case Op::ge:
        m = &cf.operand();
        probe_cls = value_class(cf.operand());
        break;
      case Op::lt:
      case Op::le:
        M = &cf.operand();
        probe_cls = value_class(cf.operand());
        break;
      case Op::range:
        m = &cf.operand();
        M = &cf.hi();
        probe_cls = value_class(cf.operand());
        break;
      case Op::prefix: {
        m = &cf.operand();
        probe_cls = 1;
        // The oracle only lets lt/le/range cover a prefix when
        // next_prefix exists; without it the hi lane has nothing to do.
        auto np = next_prefix(cf.operand().as_string());
        if (np.has_value()) {
          np_value = Value(*np);
          M = &np_value;
        }
        break;
      }
      default:
        break;  // ne/any: no bound-lane coverage possible
    }

    if (probe_cls == 0 || probe_cls == 1) {
      if (m != nullptr) {
        const auto& list = probe_cls == 0 ? b.num_lo : b.str_lo;
        for (const Item& item : list) {
          if (item.c->operand().compare(*m).value_or(1) > 0) break;
          if (item.c->covers(cf)) bump(item.slot);
        }
      }
      if (M != nullptr) {
        const auto& list = probe_cls == 0 ? b.num_hi : b.str_hi;
        for (const Item& item : list) {
          if (item.c->operand().compare(*M).value_or(-1) < 0) break;
          if (item.c->covers(cf)) bump(item.slot);
        }
      }
    }

    // Catch-all lane: exact oracle.
    for (const Item& item : b.general) {
      if (item.c->covers(cf)) bump(item.slot);
    }
  }

  emit_full(out);
}

// ---------------------------------------------------------------------------
// covered_by_of: registered G with F.covers(G)
// ---------------------------------------------------------------------------
//
// Counting over F's terms again, but in the inner direction: a
// registered term on attribute a is bumped when F's constraint on a
// covers it; G is covered iff it collected one bump per F term (G must
// constrain every attribute F does). An empty F covers everything.

void CoverEngine::covered_by_of(const filter::Filter& f,
                                std::vector<std::uint32_t>& out) const {
  begin_query();
  out.clear();

  if (f.empty()) {
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(entries_.size()); ++slot) {
      if (entries_[slot].alive) out.push_back(slot);
    }
    return;
  }

  const auto class_floor = [](int cls) {
    EqKey k;
    k.cls = cls;
    k.num = -std::numeric_limits<double>::infinity();
    return k;
  };

  for (const auto& term : f.terms()) {
    const std::uint32_t attr = term.attr.value();
    if (attr >= buckets_.size()) continue;  // nothing here can reach |F|
    const Bucket& b = buckets_[attr];
    const Constraint& cf = term.c;

    if (cf.op() == Op::any) {
      // `any` covers every same-attribute constraint: bump the whole
      // bucket (each slot holds at most one term per attribute).
      for (const std::uint32_t slot : b.any_slots) bump(slot);
      for (const auto& [key, bucket] : b.eq) {
        for (const std::uint32_t slot : bucket.exact_slots) bump(slot);
        for (const EqItem& item : bucket.inexact) bump(item.slot);
      }
      for (const Item& item : b.num_lo) bump(item.slot);
      for (const Item& item : b.str_lo) bump(item.slot);
      for (const Item& item : b.num_hi) bump(item.slot);
      for (const Item& item : b.str_hi) bump(item.slot);
      for (const Item& item : b.general) bump(item.slot);
      continue;
    }
    // A registered `any` is covered only by `any` — lane skipped.

    // Equality lane: eq(w) is covered iff cf.matches(w). The normalized
    // key order is value-monotone per class (double rounding preserves
    // order), so ordered cf ops probe a key segment; every candidate is
    // confirmed with the exact matches() because huge-int64 keys are
    // lossy.
    if (!b.eq.empty()) {
      const auto verify = [&](const EqBucket& bucket) {
        for (std::size_t i = 0; i < bucket.exact_slots.size(); ++i) {
          if (cf.matches(bucket.exact_operands[i])) {
            bump(bucket.exact_slots[i]);
          }
        }
        for (const EqItem& item : bucket.inexact) {
          if (cf.matches(item.operand)) bump(item.slot);
        }
      };
      const Value* w = witness_of(cf);
      if (w != nullptr) {
        auto it = b.eq.find(eq_key_of(*w));
        if (it != b.eq.end()) {
          const EqBucket& bucket = it->second;
          if (eq_key_exact(*w)) {
            for (const std::uint32_t slot : bucket.exact_slots) bump(slot);
            for (const EqItem& item : bucket.inexact) {
              if (w->equals(item.operand)) bump(item.slot);
            }
          } else {
            verify(bucket);
          }
        }
      } else {
        switch (cf.op()) {
          case Op::lt:
          case Op::le: {
            const EqKey hi = eq_key_of(cf.operand());
            for (auto it = b.eq.lower_bound(class_floor(hi.cls));
                 it != b.eq.end() && !EqKeyLess{}(hi, it->first); ++it) {
              verify(it->second);
            }
            break;
          }
          case Op::gt:
          case Op::ge: {
            const EqKey lo = eq_key_of(cf.operand());
            for (auto it = b.eq.lower_bound(lo);
                 it != b.eq.end() && it->first.cls == lo.cls; ++it) {
              verify(it->second);
            }
            break;
          }
          case Op::range: {
            const EqKey lo = eq_key_of(cf.operand());
            const EqKey hi = eq_key_of(cf.hi());
            for (auto it = b.eq.lower_bound(lo);
                 it != b.eq.end() && !EqKeyLess{}(hi, it->first); ++it) {
              verify(it->second);
            }
            break;
          }
          case Op::prefix: {
            EqKey lo;
            lo.cls = 1;
            lo.str = cf.operand().as_string();
            const auto np = next_prefix(lo.str);
            for (auto it = b.eq.lower_bound(lo);
                 it != b.eq.end() && it->first.cls == 1 &&
                 (!np.has_value() || it->first.str < *np);
                 ++it) {
              verify(it->second);
            }
            break;
          }
          case Op::in_set: {
            // Distinct members may share a normalized key (lossy
            // int64s), so dedup probes by key, and verify items against
            // the whole set, not the probing member.
            std::vector<EqKey> probed;
            for (const Value& member : cf.values()) {
              EqKey k = eq_key_of(member);
              const auto seen = [&](const EqKey& q) {
                return !EqKeyLess{}(q, k) && !EqKeyLess{}(k, q);
              };
              if (std::any_of(probed.begin(), probed.end(), seen)) continue;
              auto it = b.eq.find(k);
              if (it != b.eq.end()) verify(it->second);
              probed.push_back(std::move(k));
            }
            break;
          }
          case Op::ne:
            for (const auto& [key, bucket] : b.eq) verify(bucket);
            break;
          default:
            break;
        }
      }
    }

    // Lower-bound lane (gt/ge/range): covered items have lo inside the
    // window cf admits — including degenerate ranges [w,w], whose lo is
    // their witness. Candidates confirm with the exact covers() oracle.
    const int cls = value_class(cf.operand());
    const auto lo_scan = [&](const std::vector<Item>& list) {
      const auto from = [&](const Value& v) {
        return std::partition_point(
            list.begin(), list.end(),
            [&](const Item& item) { return bound_less(item.c->operand(), v); });
      };
      switch (cf.op()) {
        case Op::eq: {
          // Only point-ranges [w,w] with w == v can be covered.
          for (auto it = from(cf.operand()); it != list.end(); ++it) {
            if (it->c->operand().compare(cf.operand()).value_or(1) != 0) break;
            if (cf.covers(*it->c)) bump(it->slot);
          }
          break;
        }
        case Op::in_set: {
          // Per-member point probes; members can be numerically equal
          // while structurally distinct, so dedup slots before bumping.
          probe_scratch_.clear();
          for (const Value& member : cf.values()) {
            if (value_class(member) != value_class(list.front().c->operand())) {
              continue;
            }
            for (auto it = from(member); it != list.end(); ++it) {
              if (it->c->operand().compare(member).value_or(1) != 0) break;
              if (cf.covers(*it->c)) probe_scratch_.push_back(it->slot);
            }
          }
          std::sort(probe_scratch_.begin(), probe_scratch_.end());
          probe_scratch_.erase(
              std::unique(probe_scratch_.begin(), probe_scratch_.end()),
              probe_scratch_.end());
          for (const std::uint32_t slot : probe_scratch_) bump(slot);
          break;
        }
        case Op::gt:
        case Op::ge:
          for (auto it = from(cf.operand()); it != list.end(); ++it) {
            if (cf.covers(*it->c)) bump(it->slot);
          }
          break;
        case Op::range:
          for (auto it = from(cf.operand()); it != list.end(); ++it) {
            if (it->c->operand().compare(cf.hi()).value_or(1) > 0) break;
            if (cf.covers(*it->c)) bump(it->slot);
          }
          break;
        case Op::lt:
        case Op::le:
          // Covered ranges satisfy hi ≤ v, hence lo ≤ v: scan that
          // ascending prefix (gt/ge items confirm false).
          for (const Item& item : list) {
            if (item.c->operand().compare(cf.operand()).value_or(1) > 0) break;
            if (cf.covers(*item.c)) bump(item.slot);
          }
          break;
        case Op::prefix: {
          const Value pv(cf.operand().as_string());
          const auto np = next_prefix(cf.operand().as_string());
          for (auto it = from(pv); it != list.end(); ++it) {
            if (np.has_value() &&
                it->c->operand().compare(Value(*np)).value_or(1) >= 0) {
              break;
            }
            if (cf.covers(*it->c)) bump(it->slot);
          }
          break;
        }
        case Op::ne:
          for (const Item& item : list) {
            if (cf.covers(*item.c)) bump(item.slot);
          }
          break;
        default:
          break;
      }
    };
    if (cf.op() == Op::ne || cf.op() == Op::in_set) {
      // ne excludes one point; in_set members may span classes. Probe
      // both class lists (the in_set scan filters per member).
      if (!b.num_lo.empty()) lo_scan(b.num_lo);
      if (!b.str_lo.empty()) lo_scan(b.str_lo);
    } else if (cf.op() == Op::prefix) {
      if (!b.str_lo.empty()) lo_scan(b.str_lo);
    } else if (cls == 0 || cls == 1) {
      const auto& list = cls == 0 ? b.num_lo : b.str_lo;
      if (!list.empty()) lo_scan(list);
    }

    // Upper-only lane (lt/le): only an upper-bounded cf (lt/le) or ne
    // can cover them; covered items have hi ≤ cf's bound — the tail of
    // the descending hi list.
    const auto hi_scan = [&](const std::vector<Item>& list) {
      if (cf.op() == Op::ne) {
        for (const Item& item : list) {
          if (cf.covers(*item.c)) bump(item.slot);
        }
        return;
      }
      const auto from = std::partition_point(
          list.begin(), list.end(), [&](const Item& item) {
            return bound_less(cf.operand(), item.c->operand());
          });
      for (auto it = from; it != list.end(); ++it) {
        if (cf.covers(*it->c)) bump(it->slot);
      }
    };
    if (cf.op() == Op::ne) {
      if (!b.num_hi.empty()) hi_scan(b.num_hi);
      if (!b.str_hi.empty()) hi_scan(b.str_hi);
    } else if ((cf.op() == Op::lt || cf.op() == Op::le) &&
               (cls == 0 || cls == 1)) {
      const auto& list = cls == 0 ? b.num_hi : b.str_hi;
      if (!list.empty()) hi_scan(list);
    }

    // Catch-all lane: exact oracle.
    for (const Item& item : b.general) {
      if (cf.covers(*item.c)) bump(item.slot);
    }
  }

  const std::uint32_t target = static_cast<std::uint32_t>(f.size());
  for (const std::uint32_t slot : touched_) {
    if (hits_[slot].count == target) out.push_back(slot);
  }
  std::sort(out.begin(), out.end());
}

// ---------------------------------------------------------------------------
// CoverIndex: plane maintenance
// ---------------------------------------------------------------------------

CoverIndex::CoverIndex(Strategy strategy) : strategy_(strategy) {}

std::set<SubKey>* CoverIndex::Distinct::remote_tags(LinkId link) {
  for (auto& [from, tags] : remote) {
    if (from == link) return &tags;
  }
  return nullptr;
}

const std::set<SubKey>* CoverIndex::Distinct::remote_tags(LinkId link) const {
  for (const auto& [from, tags] : remote) {
    if (from == link) return &tags;
  }
  return nullptr;
}

bool CoverIndex::Distinct::present(LinkId link) const {
  if (!keyed.empty() || remote.size() > 1) return true;
  return remote.size() == 1 && remote.front().first != link;
}

bool CoverIndex::Distinct::is_elected(LinkId link) const {
  return std::find(elected.begin(), elected.end(), link) != elected.end();
}

std::set<SubKey> CoverIndex::Distinct::tags(LinkId link) const {
  std::set<SubKey> out(keyed.begin(), keyed.end());
  for (const auto& [from, keys] : remote) {
    if (from != link) out.insert(keys.begin(), keys.end());
  }
  return out;
}

CoverIndex::Distinct& CoverIndex::acquire(const filter::Filter& f) {
  auto [it, inserted] = distinct_.try_emplace(f);
  if (inserted) it->second.f = &it->first;  // map keys are address-stable
  return it->second;
}

CoverIndex::Distinct* CoverIndex::find(const filter::Filter& f) {
  auto it = distinct_.find(f);
  return it == distinct_.end() ? nullptr : &it->second;
}

/// `mutate` changes d's sources; `except` names the link whose own
/// routing entry changed (its view never holds that entry), or none.
/// Registers or drops d in engine_ as it gains its first or loses its
/// last source, and moves every other view along: a filter entering a
/// view runs the election rule, one leaving it is unelected, and one
/// that stays has its tags changed (dirty when elected).
template <typename Mutate>
void CoverIndex::change_sources(Distinct& d, LinkId except, Mutate mutate) {
  const bool had_source = d.has_source();
  std::vector<char> before;
  before.reserve(views_.size());
  for (const auto& [link, dirty] : views_) before.push_back(d.present(link));
  mutate();
  if (!had_source && d.has_source()) {
    d.slot = engine_.add(d.f);
    if (d.slot >= owners_.size()) owners_.resize(d.slot + 1);
    owners_[d.slot] = &d;
  }
  std::size_t i = 0;
  for (auto& [link, dirty] : views_) {
    const bool was = before[i++] != 0;
    if (link == except) continue;
    const bool is = d.present(link);
    if (was && is) {
      if (d.is_elected(link)) mark(dirty, d);
    } else if (is) {
      elect(link, dirty, d);
    } else if (was) {
      unelect(link, dirty, d);
    }
  }
  if (had_source && !d.has_source()) {
    engine_.remove(d.slot);
    owners_[d.slot] = nullptr;
    release(d);
  }
}

void CoverIndex::mark(std::set<Ref>& dirty, Distinct& d) {
  if (dirty.insert(Ref{&d}).second) ++d.dirty_marks;
}

/// Erases a filter nothing refers to any more: no source, no dirty mark.
void CoverIndex::release(Distinct& d) {
  if (d.has_source() || d.dirty_marks != 0) return;
  REBECA_ASSERT(d.elected.empty(), "cover index: releasing an elected filter");
  distinct_.erase(distinct_.find(*d.f));
}

/// The election rule for a filter entering the view: dominated by an
/// elected member (covered by it, strictly or as the Filter-greater of
/// a mutually covering pair), or elected, evicting the members it
/// dominates — the step collapse_covering_indexed takes per input. ≻ is
/// a strict partial order, so the elected set stays exactly the
/// ≻-maximal filters in any insertion order. Both queries run on the
/// index's engine (every view's filters are registered there once) and
/// keep the hits the view elects.
void CoverIndex::elect(LinkId link, std::set<Ref>& dirty, Distinct& d) {
  if (strategy_ == Strategy::flooding) return;
  const bool aggregate = strategy_aggregates(strategy_);
  const filter::Filter& f = *d.f;
  if (aggregate) {
    engine_.covers_of(f, elect_scratch_);
    for (const std::uint32_t s : elect_scratch_) {
      const Distinct& g = *owners_[s];
      if (&g == &d || !g.is_elected(link)) continue;
      const filter::Filter& winner = *g.f;
      if (!f.covers(winner) || winner < f) return;
    }
  }
  d.elected.push_back(link);
  mark(dirty, d);
  if (!aggregate) return;
  engine_.covered_by_of(f, elect_scratch_);
  for (const std::uint32_t s : elect_scratch_) {
    Distinct& g = *owners_[s];
    if (&g == &d || !g.is_elected(link)) continue;
    const filter::Filter& loser = *g.f;
    if (loser.covers(f) && loser < f) continue;  // g wins the tie
    std::erase(g.elected, link);
    mark(dirty, g);
  }
}

/// A filter leaving the view: if it was elected, the filters it covered
/// that the view still holds run the election rule again, in Filter
/// order. Only those can be newly undominated: anything the remaining
/// elected members dominate stays dominated.
void CoverIndex::unelect(LinkId link, std::set<Ref>& dirty, Distinct& d) {
  if (!d.is_elected(link)) return;
  std::erase(d.elected, link);
  mark(dirty, d);
  if (!strategy_aggregates(strategy_)) return;
  engine_.covered_by_of(*d.f, query_scratch_);
  std::vector<Ref> candidates;
  for (const std::uint32_t s : query_scratch_) {
    Distinct* covered = owners_[s];
    if (covered == &d || covered->is_elected(link) ||
        !covered->present(link)) {
      continue;
    }
    candidates.push_back(Ref{covered});
  }
  std::sort(candidates.begin(), candidates.end());
  for (const Ref& c : candidates) elect(link, dirty, *c.d);
}

void CoverIndex::untag_link(const SubKey& key, LinkId link) {
  auto kit = tag_links_.find(key);
  REBECA_ASSERT(kit != tag_links_.end(), "cover index: untag of unknown key");
  auto lit = kit->second.find(link);
  REBECA_ASSERT(lit != kit->second.end(), "cover index: untag of unknown link");
  if (--lit->second == 0) kit->second.erase(lit);
  if (kit->second.empty()) tag_links_.erase(kit);
}

bool CoverIndex::upsert_remote(LinkId link, const filter::Filter& f,
                               const std::set<SubKey>& tags) {
  Distinct& d = acquire(f);
  std::set<SubKey>* tagged = d.remote_tags(link);
  if (tagged == nullptr) {
    ++sources_;
    for (const SubKey& key : tags) ++tag_links_[key][link];
    change_sources(d, link, [&] {
      d.remote.insert(std::upper_bound(d.remote.begin(), d.remote.end(), link,
                                       [](LinkId l, const auto& entry) {
                                         return l < entry.first;
                                       }),
                      {link, tags});
    });
    return true;
  }
  // Tag-only upsert: the filter and its election are unchanged.
  for (const SubKey& key : *tagged) {
    if (tags.count(key) == 0) untag_link(key, link);
  }
  for (const SubKey& key : tags) {
    if (tagged->count(key) == 0) ++tag_links_[key][link];
  }
  change_sources(d, link, [&] { *tagged = tags; });
  return false;
}

bool CoverIndex::untag_remote(LinkId link, const filter::Filter& f,
                              const SubKey& key) {
  Distinct* d = find(f);
  std::set<SubKey>* tagged = d != nullptr ? d->remote_tags(link) : nullptr;
  if (tagged == nullptr || tagged->count(key) == 0) return false;
  // An entry serving nobody any more must go, or it would keep routing
  // traffic down an abandoned path.
  if (tagged->size() == 1) return remove_remote(link, f);
  untag_link(key, link);
  change_sources(*d, link, [&] { tagged->erase(key); });
  return false;
}

bool CoverIndex::remove_remote(LinkId link, const filter::Filter& f) {
  Distinct* d = find(f);
  std::set<SubKey>* tagged = d != nullptr ? d->remote_tags(link) : nullptr;
  if (tagged == nullptr) return false;
  for (const SubKey& key : *tagged) untag_link(key, link);
  --sources_;
  change_sources(*d, link, [&] {
    std::erase_if(d->remote,
                  [&](const auto& entry) { return entry.first == link; });
  });
  return true;
}

void CoverIndex::upsert_keyed(std::map<SubKey, Distinct*>& plane,
                              const SubKey& key, const filter::Filter& f) {
  auto it = plane.find(key);
  if (it != plane.end()) {
    if (*it->second->f == f) return;
    remove_keyed(plane, key);
  }
  Distinct& d = acquire(f);
  ++sources_;
  change_sources(d, LinkId{}, [&] { d.keyed.push_back(key); });
  plane[key] = &d;
}

void CoverIndex::remove_keyed(std::map<SubKey, Distinct*>& plane,
                              const SubKey& key) {
  auto it = plane.find(key);
  if (it == plane.end()) return;
  Distinct& d = *it->second;
  plane.erase(it);
  --sources_;
  change_sources(d, LinkId{}, [&] {
    // One occurrence: the key may register the filter in both planes.
    d.keyed.erase(std::find(d.keyed.begin(), d.keyed.end(), key));
  });
}

void CoverIndex::upsert_local(const SubKey& key, const filter::Filter& f) {
  upsert_keyed(local_, key, f);
}

void CoverIndex::remove_local(const SubKey& key) { remove_keyed(local_, key); }

void CoverIndex::upsert_virtual(const SubKey& key, const filter::Filter& f) {
  upsert_keyed(virtual_, key, f);
}

void CoverIndex::remove_virtual(const SubKey& key) {
  remove_keyed(virtual_, key);
}

// ---------------------------------------------------------------------------
// CoverIndex: consumer queries
// ---------------------------------------------------------------------------

ForwardSet CoverIndex::remote_table(LinkId link) const {
  ForwardSet out;
  for (const auto& [f, d] : distinct_) {
    if (const std::set<SubKey>* tags = d.remote_tags(link)) {
      out.emplace_hint(out.end(), f, *tags);
    }
  }
  return out;
}

std::size_t CoverIndex::remote_tag_count() const {
  std::size_t n = 0;
  for (const auto& [key, links] : tag_links_) {
    for (const auto& [link, entries] : links) n += entries;
  }
  return n;
}

ForwardSet CoverIndex::covered_inputs(const filter::Filter& f,
                                      LinkId exclude) const {
  engine_.covered_by_of(f, query_scratch_);
  ForwardSet out;
  for (const std::uint32_t slot : query_scratch_) {
    const Distinct& g = *owners_[slot];
    if (*g.f == f || !g.present(exclude)) continue;
    out.emplace(*g.f, g.tags(exclude));
  }
  return out;
}

void CoverIndex::covering_links(const filter::Filter& f, LinkId exclude,
                                std::vector<LinkId>& out) const {
  engine_.covers_of(f, query_scratch_);
  out.clear();
  for (const std::uint32_t slot : query_scratch_) {
    for (const auto& [link, tags] : owners_[slot]->remote) {
      if (link != exclude) out.push_back(link);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void CoverIndex::links_serving(const SubKey& key, LinkId exclude,
                               std::vector<LinkId>& out) const {
  out.clear();
  auto it = tag_links_.find(key);
  if (it == tag_links_.end()) return;
  for (const auto& [link, count] : it->second) {
    if (link != exclude) out.push_back(link);
  }
}

std::vector<MoveoutCandidate> CoverIndex::tagged_filters(
    LinkId link, const SubKey& key) const {
  std::vector<MoveoutCandidate> out;
  auto kit = tag_links_.find(key);
  if (kit == tag_links_.end() || kit->second.count(link) == 0) return out;
  // One walk over the distinct filters, already in Filter order.
  for (const auto& [f, d] : distinct_) {
    const std::set<SubKey>* tags = d.remote_tags(link);
    if (tags != nullptr && tags->count(key) != 0) {
      out.push_back(MoveoutCandidate{f, tags->size()});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// CoverIndex: forward views
// ---------------------------------------------------------------------------

void CoverIndex::add_view(LinkId link) {
  auto [it, inserted] = views_.try_emplace(link);
  REBECA_ASSERT(inserted, "cover index: duplicate view for link " << link);
  for (auto& [f, d] : distinct_) {
    if (d.present(link)) elect(link, it->second, d);
  }
}

CoverIndex::ViewEntry CoverIndex::view_entry(LinkId link,
                                             const Distinct& d) const {
  return ViewEntry{d.f, d.is_elected(link), d.tags(link)};
}

ForwardSet CoverIndex::forward_set(LinkId link) const {
  ForwardSet out;
  for (const auto& [f, d] : distinct_) {
    if (d.is_elected(link)) out.emplace_hint(out.end(), f, d.tags(link));
  }
  return strategy_ == Strategy::merging ? merge_fixpoint(std::move(out)) : out;
}

std::vector<CoverIndex::ViewEntry> CoverIndex::dirty(LinkId link) const {
  std::vector<ViewEntry> out;
  for (const Ref& r : views_.at(link)) out.push_back(view_entry(link, *r.d));
  return out;
}

CoverIndex::ViewEntry CoverIndex::entry(LinkId link,
                                        const filter::Filter& f) const {
  auto it = distinct_.find(f);
  return it != distinct_.end() ? view_entry(link, it->second)
                               : ViewEntry{&f, false, {}};
}

void CoverIndex::elected_covering(LinkId link, const filter::Filter& f,
                                  std::vector<ViewEntry>& out) const {
  engine_.covers_of(f, query_scratch_);
  out.clear();
  for (const std::uint32_t s : query_scratch_) {
    if (owners_[s]->is_elected(link)) {
      out.push_back(view_entry(link, *owners_[s]));
    }
  }
}

void CoverIndex::mark_dirty(LinkId link, const filter::Filter& f) {
  if (Distinct* d = find(f); d != nullptr) mark(views_.at(link), *d);
}

void CoverIndex::mark_all_dirty(LinkId link) {
  std::set<Ref>& dirty = views_.at(link);
  for (auto& [f, d] : distinct_) {
    if (d.present(link)) mark(dirty, d);
  }
}

void CoverIndex::clear_dirty(LinkId link) {
  const std::set<Ref> dirty = std::exchange(views_.at(link), {});
  for (const Ref& r : dirty) {
    --r.d->dirty_marks;
    release(*r.d);
  }
}

}  // namespace rebeca::routing
