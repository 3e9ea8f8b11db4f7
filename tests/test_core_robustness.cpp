// Robustness tests for the DES core: dynamic spawning, multi-failure
// handling, move-only channel payloads, zero-delay ordering, and Channel
// checked against a std::deque reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/channel.h"
#include "core/engine.h"
#include "core/sync.h"
#include "core/task.h"
#include "util/rng.h"

namespace ctesim::sim {
namespace {

Task<> child(Engine& engine, Time dt, std::vector<Time>* log) {
  co_await engine.delay(dt);
  log->push_back(engine.now());
}

Task<> spawner(Engine& engine, std::vector<Time>* log) {
  co_await engine.delay(10);
  // Spawning from inside a running process must work (the new process
  // starts at the current simulated time).
  engine.spawn(child(engine, 5, log));
  co_await engine.delay(100);
  log->push_back(engine.now());
}

TEST(EngineRobustness, SpawnDuringRun) {
  Engine engine;
  std::vector<Time> log;
  engine.spawn(spawner(engine, &log));
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 15);   // child finished at 10 + 5
  EXPECT_EQ(log[1], 110);  // spawner at 10 + 100
  EXPECT_EQ(engine.unfinished_processes(), 0u);
}

Task<> fails_at(Engine& engine, Time t, const char* what) {
  co_await engine.delay(t);
  throw std::runtime_error(what);
}

TEST(EngineRobustness, FirstFailureReportedOthersContained) {
  Engine engine;
  engine.spawn(fails_at(engine, 10, "first"));
  engine.spawn(fails_at(engine, 20, "second"));
  // run() drains the queue, then rethrows a stored failure.
  try {
    engine.run();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "first" || what == "second");
  }
}

TEST(EngineRobustness, ZeroDelayPreservesProgramOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& eng, std::vector<int>* log,
                    int id) -> Task<> {
      co_await eng.delay(0);  // ready-path, no suspension
      log->push_back(id);
      co_await eng.delay(7);
      log->push_back(id + 100);
    }(engine, &order, i));
  }
  engine.run();
  ASSERT_EQ(order.size(), 10u);
  // First wave in spawn order, second wave in spawn order.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(5 + i)], i + 100);
  }
}

Task<> move_producer(Engine& engine, Channel<std::unique_ptr<int>>& ch) {
  for (int i = 0; i < 3; ++i) {
    co_await engine.delay(1);
    ch.push(std::make_unique<int>(i));
  }
}

Task<> move_consumer(Channel<std::unique_ptr<int>>& ch, int* sum) {
  for (int i = 0; i < 3; ++i) {
    auto v = co_await ch.pop();
    *sum += *v;
  }
}

TEST(ChannelRobustness, MoveOnlyPayloads) {
  Engine engine;
  Channel<std::unique_ptr<int>> ch(engine);
  int sum = 0;
  engine.spawn(move_producer(engine, ch));
  engine.spawn(move_consumer(ch, &sum));
  engine.run();
  EXPECT_EQ(sum, 0 + 1 + 2);
}

TEST(ChannelRobustness, ManyProducersOneConsumerFifoPerProducer) {
  Engine engine;
  Channel<int> ch(engine);
  for (int p = 0; p < 3; ++p) {
    engine.spawn([](Engine& eng, Channel<int>& c, int producer) -> Task<> {
      for (int i = 0; i < 4; ++i) {
        co_await eng.delay(10);
        c.push(producer * 10 + i);
      }
    }(engine, ch, p));
  }
  std::vector<int> got;
  engine.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<> {
    for (int i = 0; i < 12; ++i) out->push_back(co_await c.pop());
  }(ch, &got));
  engine.run();
  ASSERT_EQ(got.size(), 12u);
  // Per-producer order is preserved even though producers interleave.
  for (int p = 0; p < 3; ++p) {
    int last = -1;
    for (int v : got) {
      if (v / 10 == p) {
        EXPECT_GT(v % 10, last);
        last = v % 10;
      }
    }
    EXPECT_EQ(last, 3);
  }
}

TEST(EngineRobustness, RunUntilThenRunCompletes) {
  Engine engine;
  std::vector<Time> log;
  engine.spawn(child(engine, 100, &log));
  engine.spawn(child(engine, 300, &log));
  EXPECT_FALSE(engine.run_until(200));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(engine.unfinished_processes(), 1u);
  engine.run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(engine.unfinished_processes(), 0u);
}

// --- Channel vs a std::deque reference model ------------------------------
//
// The model is what Channel promised when it was built on two std::deques:
// a push goes to the oldest waiting receiver if there is one, else to the
// back of the queue; a receiver takes the front of the queue if there is
// one, else waits behind the receivers already waiting.

constexpr int kUnset = -1;

Task<> receive_into(Channel<int>& ch, int* slot) { *slot = co_await ch.pop(); }

struct ChannelModel {
  std::deque<int> items;
  std::deque<int> waiters;  // receiver ids, oldest first
  std::vector<int> expected;  // per receiver id
  std::size_t peak = 0;

  void push(int value) {
    if (waiters.empty()) {
      items.push_back(value);
      peak = std::max(peak, items.size());
      return;
    }
    expected[static_cast<std::size_t>(waiters.front())] = value;
    waiters.pop_front();
  }
  void receive(int id) {
    if (items.empty()) {
      waiters.push_back(id);
      return;
    }
    expected[static_cast<std::size_t>(id)] = items.front();
    items.pop_front();
  }
};

// Random interleaving of pushes, new receivers and time steps, compared
// with the model after every operation. A receiver starts one event after
// its spawn, so the op loop sleeps 1 ps after spawning to let it block or
// take its value before the next operation.
Task<> random_channel_ops(Engine& engine, Channel<int>& ch,
                          ChannelModel& model, std::vector<int>& got,
                          std::uint64_t seed) {
  Rng rng(seed);
  int next_value = 0;
  for (int op = 0; op < 4000; ++op) {
    const double u = rng.uniform();
    if (u < 0.45) {
      model.push(next_value);
      ch.push(next_value++);
    } else if (u < 0.85) {
      const int id = static_cast<int>(got.size());
      got.push_back(kUnset);
      model.expected.push_back(kUnset);
      model.receive(id);
      engine.spawn(receive_into(ch, &got.back()));
      co_await engine.delay(1);
    } else {
      co_await engine.delay(1);
    }
    EXPECT_EQ(ch.size(), model.items.size()) << "op " << op;
    EXPECT_EQ(ch.waiting_receivers(), model.waiters.size()) << "op " << op;
    EXPECT_LE(ch.capacity(), std::max(Fifo<int>::kMinCapacity,
                                      2 * model.peak))
        << "op " << op;
  }
  // Satisfy every receiver still waiting, then drain the queue.
  while (!model.waiters.empty()) {
    model.push(next_value);
    ch.push(next_value++);
  }
  while (!model.items.empty()) {
    const int expected = model.items.front();
    model.items.pop_front();
    const int value = co_await ch.pop();
    EXPECT_EQ(value, expected);
  }
}

TEST(ChannelRobustness, MatchesDequeModelUnderRandomInterleavings) {
  for (std::uint64_t seed : {1u, 2u, 3u, 17u, 4242u}) {
    Engine engine;
    Channel<int> ch(engine);
    ChannelModel model;
    std::vector<int> got;
    got.reserve(4000);  // receivers hold pointers into it
    engine.spawn(random_channel_ops(engine, ch, model, got, seed));
    engine.run();
    EXPECT_EQ(engine.unfinished_processes(), 0u) << "seed " << seed;
    ASSERT_EQ(got.size(), model.expected.size());
    for (std::size_t id = 0; id < got.size(); ++id) {
      EXPECT_NE(got[id], kUnset) << "seed " << seed << " receiver " << id;
      EXPECT_EQ(got[id], model.expected[id])
          << "seed " << seed << " receiver " << id;
    }
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(ch.waiting_receivers(), 0u);
  }
}

// A queue that never drains: values keep flowing for 200k pushes while
// the occupancy random-walks above zero. The ring reuses its slots, so the
// buffer tracks the peak backlog, not the number of values that went by.
Task<> never_draining_stream(Channel<int>& ch, std::uint64_t seed,
                             std::size_t* peak, int* pushed) {
  Rng rng(seed);
  int next_out = 0;
  while (*pushed < 200000) {
    if (ch.size() <= 1 || rng.uniform() < 0.5) {
      ch.push((*pushed)++);
      *peak = std::max(*peak, ch.size());
    } else {
      const int value = co_await ch.pop();
      EXPECT_EQ(value, next_out++);
    }
    EXPECT_GE(ch.size(), 1u);
  }
}

TEST(ChannelRobustness, NeverDrainingStreamKeepsCapacityBoundedByPeak) {
  Engine engine;
  Channel<int> ch(engine);
  std::size_t peak = 0;
  int pushed = 0;
  engine.spawn(never_draining_stream(ch, 99, &peak, &pushed));
  engine.run();
  EXPECT_EQ(pushed, 200000);
  EXPECT_LT(peak, 20000u);  // the walk stays far below the total
  EXPECT_LE(ch.capacity(), 2 * peak);
}

Task<> event_chain(Engine& engine, Event& a, Event& b) {
  co_await a.wait();
  co_await engine.delay(5);
  b.set();
}

TEST(SyncRobustness, EventChainsCompose) {
  Engine engine;
  Event a(engine);
  Event b(engine);
  Time b_seen = -1;
  engine.spawn(event_chain(engine, a, b));
  engine.spawn([](Engine& eng, Event& evt, Time* when) -> Task<> {
    co_await evt.wait();
    *when = eng.now();
  }(engine, b, &b_seen));
  engine.schedule_in(50, [&] { a.set(); });
  engine.run();
  EXPECT_EQ(b_seen, 55);
}

}  // namespace
}  // namespace ctesim::sim
