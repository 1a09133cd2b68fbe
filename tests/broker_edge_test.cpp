// Edge cases and failure injection around the broker protocols:
// operations racing relocations, advertisement churn, bye/unsubscribe at
// awkward moments, and bounded-state behaviors.
#include <gtest/gtest.h>

#include <memory>

#include "tests/scenario_world.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca {
namespace {

using broker::OverlayConfig;
using client::Client;
using client::ClientConfig;
using scenario::TopologySpec;
using testutil::World;

filter::Filter ticks() {
  return filter::Filter().where("sym", filter::Constraint::eq("X"));
}

filter::Notification tick(int px) {
  return filter::Notification().set("sym", "X").set("px", px);
}

TEST(BrokerEdge, UnsubscribeDuringRelocationCleansUp) {
  World w(TopologySpec::chain(4));
  Client& consumer = w.add_client(1, 3);
  Client& producer = w.add_client(2, 0);
  auto sub = consumer.subscribe(ticks());
  w.settle();
  producer.publish(tick(1));
  w.settle();

  consumer.detach_silently();
  w.settle(0.1);
  w.overlay.connect_client(consumer, 0);
  // Unsubscribe immediately, while the relocation is still in flight.
  consumer.unsubscribe(sub);
  w.settle(5.0);

  // Whatever raced, no state leaks: sessions stay, subs and virtuals go.
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(w.overlay.broker(b).virtual_count(), 0u) << "broker " << b;
  }
  producer.publish(tick(2));
  w.settle();
  EXPECT_LE(consumer.deliveries().size(), 2u);  // never the new tick
}

TEST(BrokerEdge, ByeWhileRelocationPending) {
  World w(TopologySpec::chain(4));
  Client& consumer = w.add_client(1, 3);
  Client& producer = w.add_client(2, 0);
  consumer.subscribe(ticks());
  w.settle();
  producer.publish(tick(1));
  w.settle();

  consumer.detach_silently();
  w.settle(0.1);
  w.overlay.connect_client(consumer, 0);
  w.sim.run_until(w.sim.now() + sim::millis(2));
  consumer.detach_gracefully();  // sign off mid-relocation
  w.settle(5.0);

  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(w.overlay.broker(b).virtual_count(), 0u) << "broker " << b;
  }
  // The producer's session at broker 0 survives; the consumer's is gone.
  EXPECT_EQ(w.overlay.broker(0).session_count(), 1u);
  EXPECT_EQ(w.overlay.broker(3).session_count(), 0u);
  EXPECT_FALSE(consumer.connected());
}

TEST(BrokerEdge, AdvertisementChurnKeepsDeliveryCorrect) {
  OverlayConfig cfg;
  cfg.broker.use_advertisements = true;
  World w(TopologySpec::chain(4), cfg);
  Client& consumer = w.add_client(1, 0);
  Client& producer = w.add_client(2, 3);
  consumer.subscribe(ticks());
  w.settle();

  // Advertise → publish → unadvertise → publish (dropped en route is
  // acceptable only after the unadvertise propagates) → re-advertise.
  auto adv = producer.advertise(filter::Filter().where("sym", filter::Constraint::any()));
  w.settle();
  producer.publish(tick(1));
  w.settle();
  EXPECT_EQ(consumer.deliveries().size(), 1u);

  producer.unadvertise(adv);
  w.settle();
  // Subscriptions were pruned back: upstream brokers dropped the entry.
  EXPECT_EQ(w.overlay.broker(3).routing_entry_count(), 0u);

  producer.advertise(filter::Filter().where("sym", filter::Constraint::any()));
  w.settle();
  producer.publish(tick(2));
  w.settle();
  EXPECT_EQ(consumer.deliveries().size(), 2u);
}

TEST(BrokerEdge, NonOverlappingAdvertisementDoesNotPullSubscription) {
  OverlayConfig cfg;
  cfg.broker.use_advertisements = true;
  World w(TopologySpec::chain(3), cfg);
  Client& consumer = w.add_client(1, 0);
  Client& producer = w.add_client(2, 2);
  producer.advertise(filter::Filter().where("sym", filter::Constraint::eq("Y")));
  consumer.subscribe(ticks());  // sym == "X": disjoint from the adv
  w.settle();
  EXPECT_EQ(w.overlay.broker(2).routing_entry_count(), 0u);
}

TEST(BrokerEdge, ManySubscriptionsOneClientRoam) {
  World w(TopologySpec::chain(4));
  Client& consumer = w.add_client(1, 3);
  Client& producer = w.add_client(2, 0);
  std::vector<std::uint32_t> subs;
  for (int i = 0; i < 12; ++i) {
    subs.push_back(consumer.subscribe(
        filter::Filter().where("topic", filter::Constraint::eq(util::str_cat("t", i)))));
  }
  w.settle();
  for (int i = 0; i < 12; ++i) {
    producer.publish(filter::Notification().set("topic", util::str_cat("t", i)));
  }
  w.settle();
  consumer.detach_silently();
  w.settle(0.1);
  for (int i = 0; i < 12; ++i) {
    producer.publish(filter::Notification().set("topic", util::str_cat("t", i)).set("r", 2));
  }
  w.settle(0.3);
  w.overlay.connect_client(consumer, 1);
  w.settle(5.0);

  EXPECT_EQ(consumer.deliveries().size(), 24u);
  EXPECT_EQ(consumer.duplicate_count(), 0u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(w.overlay.broker(b).virtual_count(), 0u);
  }
}

TEST(BrokerEdge, PublisherRoamsWhilePublishing) {
  // Producer-side mobility: offline publications queue and flush.
  World w(TopologySpec::chain(3));
  Client& consumer = w.add_client(1, 0);
  Client& producer = w.add_client(2, 2);
  consumer.subscribe(ticks());
  w.settle();

  producer.publish(tick(1));
  w.settle();
  producer.detach_silently();
  producer.publish(tick(2));  // queued offline
  producer.publish(tick(3));
  w.settle(0.5);
  w.overlay.connect_client(producer, 1);  // different broker
  w.settle();

  ASSERT_EQ(consumer.deliveries().size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      consumer.deliveries().begin(), consumer.deliveries().end(),
      [](const auto& a, const auto& b) {
        return a.notification.producer_seq() < b.notification.producer_seq();
      }));
}

TEST(BrokerEdge, ZeroCapacityHistoryStillWorksWhenConnected) {
  OverlayConfig cfg;
  cfg.broker.session_history = 1;  // pathological but legal
  World w(TopologySpec::chain(2), cfg);
  Client& consumer = w.add_client(1, 0);
  Client& producer = w.add_client(2, 1);
  consumer.subscribe(ticks());
  w.settle();
  for (int i = 0; i < 10; ++i) producer.publish(tick(i));
  w.settle();
  EXPECT_EQ(consumer.deliveries().size(), 10u);
}

TEST(BrokerEdge, RelocationSurvivesBystanderUnsubscribe) {
  // The covering entry the fetch fallback would follow disappears while
  // the relocation is in flight; per-key tags must still find the path.
  OverlayConfig cfg;
  cfg.broker.strategy = routing::Strategy::covering;
  World w(TopologySpec::chain(4), cfg);
  Client& bystander = w.add_client(3, 1);
  auto broad = bystander.subscribe(filter::Filter());
  Client& consumer = w.add_client(1, 3);
  Client& producer = w.add_client(2, 0);
  consumer.subscribe(ticks());
  w.settle();

  producer.publish(tick(1));
  w.settle();
  consumer.detach_silently();
  w.settle(0.1);
  producer.publish(tick(2));
  w.settle(0.1);
  bystander.unsubscribe(broad);  // cover vanishes mid-flight
  w.overlay.connect_client(consumer, 0);
  w.settle(5.0);

  EXPECT_EQ(consumer.deliveries().size(), 2u);
  EXPECT_EQ(consumer.duplicate_count(), 0u);
}

TEST(BrokerEdge, TwoClientsSameFilterRoamIndependently) {
  World w(TopologySpec::chain(4));
  Client& a = w.add_client(1, 3);
  Client& b = w.add_client(2, 3);  // same border, same filter
  Client& producer = w.add_client(3, 0);
  a.subscribe(ticks());
  b.subscribe(ticks());
  w.settle();
  producer.publish(tick(1));
  w.settle();

  a.detach_silently();  // only a moves
  w.settle(0.1);
  producer.publish(tick(2));
  w.settle(0.2);
  w.overlay.connect_client(a, 1);
  w.settle(5.0);
  producer.publish(tick(3));
  w.settle();

  EXPECT_EQ(a.deliveries().size(), 3u);
  EXPECT_EQ(b.deliveries().size(), 3u);
  EXPECT_EQ(a.duplicate_count(), 0u);
  EXPECT_EQ(b.duplicate_count(), 0u);
}

TEST(BrokerEdge, ReplayPreservedAcrossManyQuickHops) {
  // Hammer the epoch chaining: five hops with barely any dwell.
  World w(TopologySpec::chain(6), OverlayConfig{}, 5);
  Client& consumer = w.add_client(1, 5);
  Client& producer = w.add_client(2, 0);
  consumer.subscribe(ticks());
  w.settle();

  workload::PublisherConfig pc;
  pc.rate = workload::RateModel::periodic(sim::millis(7));
  pc.prototype = filter::Notification().set("sym", "X");
  workload::Publisher pub(w.sim, producer, pc);
  pub.start();
  w.settle(0.5);

  for (std::size_t hop : {0u, 4u, 1u, 3u, 2u}) {
    consumer.detach_silently();
    w.sim.run_until(w.sim.now() + sim::millis(15));
    w.overlay.connect_client(consumer, hop);
    w.sim.run_until(w.sim.now() + sim::millis(25));
  }
  w.settle(1.0);
  pub.stop();
  w.settle(25.0);

  EXPECT_EQ(consumer.deliveries().size(), pub.published());
  EXPECT_EQ(consumer.duplicate_count(), 0u);
  std::uint64_t prev = 0;
  for (const auto& d : consumer.deliveries()) {
    EXPECT_EQ(d.notification.producer_seq(), prev + 1);
    prev = d.notification.producer_seq();
  }
}

}  // namespace
}  // namespace rebeca
