// The admin plane against its linear reference: on every broker's live
// tables, CoverIndex's links_serving / covering_links / tagged_filters /
// covered_inputs, each link's forward view and the indexed forward set
// agree with the table scans and the two-argument compute_forward_set
// they replaced, every sent set equals its link's target outside the
// dirty filters and pins, and — once an example run has drained — equals
// the routing table the peer keeps for the link (see
// tests/plane_reference.hpp).
#include <gtest/gtest.h>

#include "tests/plane_reference.hpp"

namespace rebeca {
namespace {

using testutil::Plane;

TEST(AdminIndexEquivalence, IndexAgreesWithLinearScansOnEveryExampleConfig) {
  testutil::audit_example_configs(Plane::admin);
}

TEST(AdminIndexEquivalence, IndexAgreesUnderEveryAggregationWithLocationDependentClients) {
  testutil::audit_aggregation_scenario(Plane::admin);
}

}  // namespace
}  // namespace rebeca
