// RoomPlan vs the frozen reference tracer (ref::RayTracer): the
// production tracer must be BIT-identical — same paths, same order, same
// doubles — or the sim layer's cached==uncached and thread-invariance
// guarantees silently rot (docs/GEOMETRY.md).
#include "mmx/channel/room_plan.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "mmx/common/rng.hpp"
#include "ref_ray_tracer.hpp"

namespace mmx::channel {
namespace {

::testing::AssertionResult paths_equal(std::span<const Path> ref, std::span<const Path> fast) {
  if (ref.size() != fast.size())
    return ::testing::AssertionFailure()
           << "path count mismatch: ref " << ref.size() << " fast " << fast.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const Path& a = ref[i];
    const Path& b = fast[i];
    if (a.kind != b.kind || a.length_m != b.length_m || a.departure_rad != b.departure_rad ||
        a.arrival_rad != b.arrival_rad || a.excess_loss_db != b.excess_loss_db ||
        a.blocker_crossings != b.blocker_crossings || a.wall_index != b.wall_index ||
        !(a.via == b.via))
      return ::testing::AssertionFailure()
             << "path " << i << " differs: ref(kind=" << static_cast<int>(a.kind)
             << " len=" << a.length_m << " loss=" << a.excess_loss_db
             << " cross=" << a.blocker_crossings << " w=" << a.wall_index
             << ") fast(kind=" << static_cast<int>(b.kind) << " len=" << b.length_m
             << " loss=" << b.excess_loss_db << " cross=" << b.blocker_crossings
             << " w=" << b.wall_index << ")";
  }
  return ::testing::AssertionSuccess();
}

// The plan's one cull; the reference tracer takes it as an argument.
constexpr double kCull = RoomPlan::kMaxExcessLossDb;

Vec2 random_point(Rng& rng, double w, double h) {
  return {rng.uniform(0.05, w - 0.05), rng.uniform(0.05, h - 0.05)};
}

Room random_room(Rng& rng, double& w, double& h) {
  w = rng.uniform(3.0, 15.0);
  h = rng.uniform(3.0, 12.0);
  Room room(w, h);
  const int reflectors = rng.uniform_int(0, 2);
  for (int r = 0; r < reflectors; ++r) {
    const Vec2 a = random_point(rng, w, h);
    const Vec2 d = unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.3, 2.5);
    room.add_reflector({a, a + d}, rng.chance(0.5) ? metal() : wood_furniture());
  }
  const int partitions = rng.uniform_int(0, 2);
  for (int r = 0; r < partitions; ++r) {
    const Vec2 a = random_point(rng, w, h);
    const Vec2 d = unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.5, 4.0);
    room.add_partition({a, a + d}, rng.chance(0.5) ? drywall() : glass());
  }
  const int blockers = rng.uniform_int(0, 6);
  for (int b = 0; b < blockers; ++b)
    room.add_blocker({random_point(rng, w, h), rng.uniform(0.1, 0.6), rng.uniform(5.0, 30.0)});
  return room;
}

// Up to 12 more blockers of up to 70 dB: one crossing alone can push a
// path past the cull.
void add_heavy_blockers(Rng& rng, Room& room, double w, double h) {
  for (int b = rng.uniform_int(0, 12); b > 0; --b)
    room.add_blocker({random_point(rng, w, h), rng.uniform(0.1, 0.6), rng.uniform(0.0, 70.0)});
}

// Blockers until the plan's grid broad phase switches on (8 or more).
void add_grid_blockers(Rng& rng, Room& room, double w, double h) {
  while (room.blockers().size() < 8)
    room.add_blocker({random_point(rng, w, h), rng.uniform(0.1, 0.6), rng.uniform(5.0, 30.0)});
}

// The corners of a traced path: tx, the reflection point if any, rx.
// Leg l runs corners[l] -> corners[l + 1].
std::array<Vec2, 3> path_corners(const Path& p, Vec2 tx, Vec2 rx) {
  return {tx, p.kind == PathKind::kReflected ? p.via : rx, rx};
}

std::size_t path_legs(const Path& p) { return p.kind == PathKind::kReflected ? 2 : 1; }

// A blocker-free window priced leg by leg: each path's wall terms plus one
// leg_blocker_loss_db per leg, summed in the reference order (reflection
// loss, blocker terms, transmission terms), then culled at the bound.
// Written out rather than calling priced_loss_db, so it checks that
// function independently.
std::vector<Path> price_window(const RoomPlan& plan, std::span<const Path> window, Vec2 tx,
                               Vec2 rx, PathList& ws) {
  std::vector<Path> out;
  for (Path p : window) {
    const auto corners = path_corners(p, tx, rx);
    const std::size_t legs = path_legs(p);
    double loss = p.walls.reflection_db;
    int crossings = 0;
    for (std::size_t l = 0; l < legs; ++l)
      loss += plan.leg_blocker_loss_db(corners[l], corners[l + 1], p.kind, ws, crossings);
    for (std::size_t l = 0; l < legs; ++l) loss += p.walls.leg_transmission_db[l];
    if (!(loss <= kCull)) continue;
    p.excess_loss_db = loss;
    p.blocker_crossings = crossings;
    out.push_back(p);
  }
  return out;
}

// The headline property test: ~12k random (room, endpoints) draws,
// reference and plan compared field-by-field with exact floating point
// equality. Half the cases add blockers until the grid broad phase is on
// (8 or more); the other half keep random_room's 0 to 6 blockers, so the
// flat SoA scan runs. A quarter of the draws compare the reference's
// blocker-free trace against the window of a one-node batch trace, which
// is how the plan produces that set. A heavy-blocker arm follows with its
// own draws: up to 12 more blockers of up to 70 dB, the grid on in at
// least half, so trace_into's price-then-cull step drops paths the
// blocker-free trace kept.
TEST(RoomPlanProperty, BitIdenticalToReferenceTracer) {
  constexpr int kCases = 12000;
  constexpr int kHeavyCases = 3000;
  PathList ws;
  ImageTable images;
  std::vector<std::uint32_t> offsets(2);
  for (int c = 0; c < kCases; ++c) {
    Rng rng = Rng::stream(0x700fULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    Room room = random_room(rng, w, h);
    if (c % 2 == 1) add_grid_blockers(rng, room, w, h);
    const ref::RayTracer tracer(room);
    const RoomPlan plan(room);
    ASSERT_EQ(plan.grid_enabled(), c % 2 == 1) << "case " << c;

    const Vec2 tx = random_point(rng, w, h);
    Vec2 rx = random_point(rng, w, h);
    if (rx == tx) rx.x += 0.25;
    const bool apply_blockers = !rng.chance(0.25);

    const auto ref = tracer.trace(tx, rx, kCull, apply_blockers);
    ws.clear();
    std::span<const Path> fast;
    if (apply_blockers) {
      fast = plan.trace_into(tx, rx, ws);
    } else {
      plan.build_images(rx, images);
      fast = plan.trace_batch_into(rx, {&tx, 1}, images, ws, offsets);
    }
    ASSERT_TRUE(paths_equal(ref, fast)) << "case " << c << " blockers " << room.blockers().size()
                                        << " grid " << plan.grid_enabled();
  }
  for (int c = 0; c < kHeavyCases; ++c) {
    Rng rng = Rng::stream(0x7e4bULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    Room room = random_room(rng, w, h);
    add_heavy_blockers(rng, room, w, h);
    if (c % 2 == 1) add_grid_blockers(rng, room, w, h);
    const ref::RayTracer tracer(room);
    const RoomPlan plan(room);
    if (c % 2 == 1) {
      ASSERT_TRUE(plan.grid_enabled()) << "heavy case " << c;
    }
    const Vec2 tx = random_point(rng, w, h);
    Vec2 rx = random_point(rng, w, h);
    if (rx == tx) rx.x += 0.25;
    ws.clear();
    ASSERT_TRUE(paths_equal(tracer.trace(tx, rx, kCull, true), plan.trace_into(tx, rx, ws)))
        << "heavy case " << c << " blockers " << room.blockers().size() << " grid "
        << plan.grid_enabled();
  }
}

TEST(RoomPlanProperty, BatchMatchesSingleAndReference) {
  Rng rng(0xba7c4);
  double w = 0.0;
  double h = 0.0;
  Room room = random_room(rng, w, h);
  while (room.blockers().size() < 8)
    room.add_blocker({random_point(rng, w, h), rng.uniform(0.1, 0.5), 20.0});
  const ref::RayTracer tracer(room);
  const RoomPlan plan(room);
  ASSERT_TRUE(plan.grid_enabled());
  const Vec2 ap = random_point(rng, w, h);

  ImageTable images;
  plan.build_images(ap, images);
  std::vector<Vec2> nodes;
  for (int i = 0; i < 400; ++i) nodes.push_back(random_point(rng, w, h));

  PathList ws;
  std::vector<std::uint32_t> offsets(nodes.size() + 1);
  const auto all = plan.trace_batch_into(ap, nodes, images, ws, offsets);
  EXPECT_EQ(all.size(), ws.size());
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), ws.size());

  PathList single;
  PathList scratch;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto window = ws.slice(offsets[i], offsets[i + 1]);
    const auto ref = tracer.trace(nodes[i], ap, kCull, true);
    const auto priced = price_window(plan, window, nodes[i], ap, scratch);
    ASSERT_TRUE(paths_equal(ref, priced)) << "node " << i;
    single.clear();
    const auto one = plan.trace_into(nodes[i], ap, single);
    ASSERT_TRUE(paths_equal(one, priced)) << "node " << i;
    ASSERT_TRUE(paths_equal(tracer.trace(nodes[i], ap, kCull, false), window))
        << "blocker-free node " << i;
  }
}

// One batch yields the blocker-free windows; each window, and the same
// window priced leg by leg, must be bit-identical to the reference's
// blockers-off and blockers-on runs, crossing counts included.
TEST(RoomPlanProperty, DualBatchMatchesTwoReferencePasses) {
  Rng rng(0xd0a1);
  double w = 0.0;
  double h = 0.0;
  Room room = random_room(rng, w, h);
  while (room.blockers().size() < 10)
    room.add_blocker({random_point(rng, w, h), rng.uniform(0.1, 0.5), 22.0});
  const ref::RayTracer tracer(room);
  const RoomPlan plan(room);
  const Vec2 ap = random_point(rng, w, h);

  ImageTable images;
  plan.build_images(ap, images);
  std::vector<Vec2> nodes;
  for (int i = 0; i < 300; ++i) nodes.push_back(random_point(rng, w, h));

  PathList ws;
  PathList scratch;
  std::vector<std::uint32_t> off(nodes.size() + 1);
  const auto all = plan.trace_batch_into(ap, nodes, images, ws, off);
  EXPECT_EQ(all.size(), ws.size());
  EXPECT_EQ(off.back(), ws.size());

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto ref_on = tracer.trace(nodes[i], ap, kCull, true);
    const auto ref_off = tracer.trace(nodes[i], ap, kCull, false);
    const auto window = ws.slice(off[i], off[i + 1]);
    ASSERT_TRUE(paths_equal(ref_on, price_window(plan, window, nodes[i], ap, scratch)))
        << "gains node " << i;
    ASSERT_TRUE(paths_equal(ref_off, window)) << "blocker-free node " << i;
  }
}

// Repricing a traced path after a blocker move: each blocker-free path's
// wall terms rebuild its traced (wall-only) loss, and priced_loss_db — the
// sum trace_into and the link cache run — equals the leg-by-leg sum, so
// the priced, culled window is the reference's blockers-on trace: the same
// paths in the same order with the same excess-loss doubles and crossing
// counts. Heavy blockers (up to 70 dB) push paths across the cull; half
// the rooms get blockers until the grid is on.
TEST(RoomPlanProperty, LegPricingRebuildsTracedLoss) {
  Rng rng(0x1e9);
  for (int c = 0; c < 40; ++c) {
    double w = 0.0;
    double h = 0.0;
    Room room = random_room(rng, w, h);
    add_heavy_blockers(rng, room, w, h);
    if (c % 2 == 1) add_grid_blockers(rng, room, w, h);
    const RoomPlan plan(room);
    if (c % 2 == 1) {
      ASSERT_TRUE(plan.grid_enabled()) << "room " << c;
    }
    const ref::RayTracer tracer(room);
    const Vec2 ap = random_point(rng, w, h);
    ImageTable images;
    plan.build_images(ap, images);
    std::vector<Vec2> nodes;
    for (int i = 0; i < 20; ++i) nodes.push_back(random_point(rng, w, h));
    PathList ws;
    std::vector<std::uint32_t> off(nodes.size() + 1);
    plan.trace_batch_into(ap, nodes, images, ws, off);

    PathList scratch;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto window = ws.slice(off[i], off[i + 1]);
      for (const Path& p : window) {
        double wall_only = p.walls.reflection_db;
        for (const double t : p.walls.leg_transmission_db) wall_only += t;
        EXPECT_EQ(wall_only, p.excess_loss_db) << "room " << c << " node " << i;
      }
      const auto repriced = price_window(plan, window, nodes[i], ap, scratch);
      for (const Path& p : repriced) {
        const auto corners = path_corners(p, nodes[i], ap);
        int crossings = 0;
        std::vector<double> blocker_db;
        for (std::size_t l = 0; l < path_legs(p); ++l)
          blocker_db.push_back(
              plan.leg_blocker_loss_db(corners[l], corners[l + 1], p.kind, scratch, crossings));
        EXPECT_EQ(RoomPlan::priced_loss_db(p.walls, blocker_db), p.excess_loss_db);
        EXPECT_EQ(crossings, p.blocker_crossings);
      }
      ASSERT_TRUE(paths_equal(tracer.trace(nodes[i], ap, kCull, true), repriced))
          << "room " << c << " node " << i;
    }
  }
}

// Grid edge cases the column-walk must survive: a segment running exactly
// along a cell boundary, a disc spanning many cells, and a disc centred
// on a grid line. The invariant is always the same — bit-identity with
// the reference scan.
TEST(RoomPlanGrid, SegmentAlongCellBoundary) {
  // An 8 m x 8 m room gets the automatic 8 / 8 = 1 m cell, so x = 4 and
  // y = 4 are exact cell boundaries. 5 dB blockers keep every path along
  // y = 4 under the cull, the line of sight through nine of them included.
  Room room(8.0, 8.0);
  for (int i = 0; i < 10; ++i)
    room.add_blocker({{0.8 * (i + 1), 4.0}, 0.25, 5.0});  // centres on the y=4 line
  const ref::RayTracer tracer(room);
  const RoomPlan plan(room);
  ASSERT_TRUE(plan.grid_enabled());

  PathList ws;
  // Horizontal segment exactly on the boundary row.
  auto ref = tracer.trace({0.5, 4.0}, {7.5, 4.0});
  ASSERT_EQ(ref.front().kind, PathKind::kLineOfSight);
  ASSERT_EQ(ref.front().blocker_crossings, 9);
  auto fast = plan.trace_into({0.5, 4.0}, {7.5, 4.0}, ws);
  EXPECT_TRUE(paths_equal(ref, fast));
  // Vertical segment on a column boundary.
  ws.clear();
  ref = tracer.trace({4.0, 0.5}, {4.0, 7.5});
  fast = plan.trace_into({4.0, 0.5}, {4.0, 7.5}, ws);
  EXPECT_TRUE(paths_equal(ref, fast));
}

TEST(RoomPlanGrid, BlockerSpanningManyCells) {
  Room room(10.0, 10.0);
  room.add_blocker({{5.0, 5.0}, 3.0, 25.0});  // 6 m disc across the 1.25 m auto grid
  room.add_blocker({{1.0, 9.0}, 0.2, 10.0});
  for (int i = 0; i < 6; ++i)  // small discs along one wall: 8 blockers turn the grid on
    room.add_blocker({{1.0 + 1.5 * i, 0.6}, 0.2, 10.0});
  const ref::RayTracer tracer(room);
  const RoomPlan plan(room);
  ASSERT_TRUE(plan.grid_enabled());

  Rng rng(77);
  PathList ws;
  for (int c = 0; c < 500; ++c) {
    const Vec2 tx = random_point(rng, 10.0, 10.0);
    Vec2 rx = random_point(rng, 10.0, 10.0);
    if (rx == tx) rx.x += 0.25;
    const auto ref = tracer.trace(tx, rx);
    ws.clear();
    const auto fast = plan.trace_into(tx, rx, ws);
    ASSERT_TRUE(paths_equal(ref, fast)) << "case " << c;
  }
}

TEST(RoomPlan, DegenerateZeroLengthWallsRejected) {
  Room room(4.0, 4.0);
  EXPECT_THROW(room.add_reflector({{1.0, 1.0}, {1.0, 1.0}}, metal()), std::invalid_argument);
  EXPECT_THROW(room.add_partition({{2.0, 2.0}, {2.0, 2.0}}, drywall()), std::invalid_argument);
  // The plan compiles the (still valid) room and matches the reference.
  const RoomPlan plan(room);
  const ref::RayTracer tracer(room);
  PathList ws;
  EXPECT_TRUE(paths_equal(tracer.trace({1.0, 1.0}, {3.0, 3.0}),
                          plan.trace_into({1.0, 1.0}, {3.0, 3.0}, ws)));
}

TEST(RoomPlan, ArgumentAndStalenessChecks) {
  Room room(6.0, 4.0);
  RoomPlan plan(room);
  PathList ws;
  EXPECT_THROW(plan.trace_into({1.0, 1.0}, {1.0, 1.0}, ws), std::invalid_argument);

  const RoomPlan empty;
  EXPECT_FALSE(empty.compiled());
  EXPECT_THROW(empty.trace_into({1.0, 1.0}, {2.0, 2.0}, ws), std::logic_error);

  ImageTable images;
  plan.build_images({3.0, 2.0}, images);
  std::vector<Vec2> nodes{{1.0, 1.0}};
  std::vector<std::uint32_t> offsets(2);
  // Wrong endpoint for the table.
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.1}, nodes, images, ws, offsets),
               std::invalid_argument);
  // Wrong offsets size: it must be nodes.size() + 1.
  std::vector<std::uint32_t> bad(1);
  std::vector<std::uint32_t> long_offsets(3);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, bad), std::invalid_argument);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, {}), std::invalid_argument);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, long_offsets),
               std::invalid_argument);
  // A priced path has 1 or 2 legs, so 1 or 2 blocker terms.
  EXPECT_THROW(RoomPlan::priced_loss_db(WallTerms{}, {}), std::invalid_argument);
  EXPECT_THROW(RoomPlan::priced_loss_db(WallTerms{}, std::vector<double>(3, 0.0)),
               std::invalid_argument);
  // Stale table: the room mutated after build_images.
  room.add_blocker(human_blocker({2.0, 2.0}));
  plan.rebuild(room);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, offsets),
               std::invalid_argument);
  // Rebuilt table works again.
  plan.build_images({3.0, 2.0}, images);
  EXPECT_GT(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, offsets).size(), 0u);
}

TEST(RoomPlan, TracksRoomEpoch) {
  Room room(6.0, 4.0);
  RoomPlan plan(room);
  EXPECT_EQ(plan.room_epoch(), room.epoch());
  const std::size_t blk = room.add_blocker(human_blocker({3.0, 2.0}));
  EXPECT_NE(plan.room_epoch(), room.epoch());
  plan.rebuild(room);
  EXPECT_EQ(plan.room_epoch(), room.epoch());
  EXPECT_EQ(plan.blocker_count(), 1u);

  // A rebuilt plan sees the moved blocker exactly like a fresh tracer.
  room.move_blocker(blk, {1.5, 2.0});
  plan.rebuild(room);
  const ref::RayTracer tracer(room);
  PathList ws;
  const auto ref = tracer.trace({1.0, 2.0}, {5.0, 2.0});
  const auto fast = plan.trace_into({1.0, 2.0}, {5.0, 2.0}, ws);
  EXPECT_TRUE(paths_equal(ref, fast));
}

// The workspace contract: appended slices stay addressable until
// clear(), and once warmed up repeated traces stop growing storage (the
// allocation-free steady state the scale lane depends on).
TEST(PathList, SliceStabilityAndSteadyStateCapacity) {
  Room room(12.0, 8.0);
  room.add_blocker(human_blocker({4.0, 4.0}));
  const RoomPlan plan(room);
  const ref::RayTracer tracer(room);
  PathList ws;
  plan.trace_into({1.0, 1.0}, {11.0, 7.0}, ws);
  const std::size_t end1 = ws.size();
  plan.trace_into({2.0, 5.0}, {11.0, 7.0}, ws);
  // Growth during the second trace may move storage (returned spans are
  // consumed-before-next-trace by contract), but the COMMITTED paths are
  // preserved: both windows still hold exactly the reference results.
  EXPECT_TRUE(paths_equal(tracer.trace({1.0, 1.0}, {11.0, 7.0}), ws.slice(0, end1)));
  EXPECT_TRUE(paths_equal(tracer.trace({2.0, 5.0}, {11.0, 7.0}), ws.slice(end1, ws.size())));

  ws.clear();
  EXPECT_EQ(ws.size(), 0u);
  plan.trace_into({1.0, 1.0}, {11.0, 7.0}, ws);
  const std::size_t warm_capacity = ws.path_capacity();
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    ws.clear();
    plan.trace_into(random_point(rng, 12.0, 8.0), {11.0, 7.0}, ws);
    EXPECT_EQ(ws.path_capacity(), warm_capacity);  // no steady-state growth
  }
}

}  // namespace
}  // namespace mmx::channel
