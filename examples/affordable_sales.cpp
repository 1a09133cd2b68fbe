// Dynamic filters: the paper's Sec. 6 generalization — "location-
// dependent filters may be generalized to 'dynamic filters' that depend
// on a function of the local state of the client …, like a client
// interested in receiving notifications for sales that he still can
// afford".
//
// The location machinery is exactly that generalization: a "location"
// is any discretized client-state variable, and the movement graph is
// the state's transition structure. Here the state is the client's
// remaining budget (bucketed in 10-EUR bands, which can only drift to
// adjacent bands as the client spends or earns); the subscription
// "sales I can afford" is a location-dependent filter over the budget
// band, and the broker-side ploc lookahead absorbs spending the same way
// it absorbs driving. The whole experiment is one scenario declaration
// whose "movement graph" is a line of budget bands.
//
// Run: ./example_affordable_sales
#include <iostream>

#include "src/scenario/scenario.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

void post_sale(scenario::Scenario& s, const char* item, int price) {
  s.client("marketplace")
      .publish(filter::Notification()
                   .set("service", "sale")
                   .set("item", item)
                   .set("price", price)
                   .set("location", util::str_cat("l", price / 10)));
}

}  // namespace

int main() {
  scenario::ScenarioBuilder b;
  // The "movement graph" of the budget: bands 0-9, 10-19, ..., 90-99
  // EUR; spending/earning moves between adjacent bands.
  b.seed(5)
      .topology(scenario::TopologySpec::chain(3))
      .locations(scenario::LocationSpec::line(10));  // l0 .. l9

  // "Sales I can afford": the marketplace tags each sale with the budget
  // band its price falls into; affordability = the sale's band is at or
  // below the shopper's. A vicinity radius of 2 bands approximates
  // "within reach" (bands are a line, so the ball spans lower and higher
  // bands; the client-side filter is exact either way and the paper's
  // point — broker-side lookahead on a client-state variable — stands).
  location::LdSpec spec;
  spec.base = filter::Filter().where("service", filter::Constraint::eq("sale"));
  spec.vicinity_radius = 2;  // prices within ±2 bands of the wallet
  spec.profile = location::UncertaintyProfile::global_resub();
  b.client("shopper").at_broker(0).starts_at("l5").subscribes(spec);
  b.client("marketplace").at_broker(2);

  b.phase("setup", sim::millis(200));
  b.phase("sales", sim::millis(200), [](scenario::Scenario& s) {
    std::cout << "wallet: 50-59 EUR band; posting sales...\n";
    post_sale(s, "headphones", 45);  // within reach
    post_sale(s, "keyboard", 60);    // within reach (one band up)
    post_sale(s, "monitor", 89);     // far out of reach
  });
  b.phase("spend", sim::millis(200), [](scenario::Scenario& s) {
    std::cout << "the shopper spends 30 EUR (wallet drifts to the 20-29 "
                 "band); the dynamic filter follows automatically:\n";
    s.client("shopper").move_to("l4");
    s.client("shopper").move_to("l3");
    s.client("shopper").move_to("l2");
  });
  b.phase("more-sales", sim::millis(200), [](scenario::Scenario& s) {
    post_sale(s, "usb cable", 9);     // now within reach
    post_sale(s, "headphones2", 55);  // no longer within reach (3 bands up)
  });

  auto s = b.build();
  const location::LocationGraph& budget_bands = *s->locations();
  client::Client& shopper = s->client("shopper");
  shopper.on_notify = [&](const client::Delivery& d) {
    std::cout << "  [" << sim::FormatTime{d.delivered_at} << "] wallet band "
              << budget_bands.name(shopper.location()) << ": affordable sale — "
              << d.notification.get("item")->as_string() << " at "
              << d.notification.get("price")->as_int() << " EUR\n";
  };
  s->run();

  std::cout << "received " << s->client("shopper").deliveries().size()
            << " affordable-sale notifications (filters tracked the wallet "
               "without any re-subscription by the application).\n";
  return s->client("shopper").deliveries().size() == 3 ? 0 : 1;
}
