// The data plane against its linear reference: on every broker's live
// tables, MatchIndex::collect returns the same links, local
// subscriptions and virtual counterparts as a Filter::matches scan of
// those tables, for every notification published so far plus NaN and
// filter-boundary variants (see tests/plane_reference.hpp).
#include <gtest/gtest.h>

#include "tests/plane_reference.hpp"

namespace rebeca {
namespace {

using testutil::Plane;

TEST(MatcherEquivalence, IndexAgreesWithLinearScansOnEveryExampleConfig) {
  testutil::audit_example_configs(Plane::data);
}

TEST(MatcherEquivalence, IndexAgreesUnderEveryAggregationWithLocationDependentClients) {
  testutil::audit_aggregation_scenario(Plane::data);
}

}  // namespace
}  // namespace rebeca
