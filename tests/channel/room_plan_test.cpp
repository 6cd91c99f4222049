// RoomPlan vs the frozen reference tracer (ref::RayTracer): the
// production tracer must be BIT-identical — same paths, same order, same
// doubles — or the sim layer's cached==uncached and thread-invariance
// guarantees silently rot (docs/GEOMETRY.md).
#include "mmx/channel/room_plan.hpp"

#include <gtest/gtest.h>

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
        a.wall_index2 != b.wall_index2 || !(a.via == b.via) || !(a.via2 == b.via2))
      return ::testing::AssertionFailure()
             << "path " << i << " differs: ref(kind=" << static_cast<int>(a.kind)
             << " len=" << a.length_m << " loss=" << a.excess_loss_db
             << " cross=" << a.blocker_crossings << " w=" << a.wall_index << "/" << a.wall_index2
             << ") fast(kind=" << static_cast<int>(b.kind) << " len=" << b.length_m
             << " loss=" << b.excess_loss_db << " cross=" << b.blocker_crossings
             << " w=" << b.wall_index << "/" << b.wall_index2 << ")";
  }
  return ::testing::AssertionSuccess();
}

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

// A blocker-free window priced leg by leg: each path's wall terms plus one
// leg_blocker_loss_db per leg, summed in the reference order (reflection
// sum, blocker terms, transmission terms), then culled at the bound.
// Written out rather than calling priced_loss_db, so it checks that
// function independently.
std::vector<Path> price_window(const RoomPlan& plan, std::span<const Path> window, Vec2 tx,
                               Vec2 rx, double max_excess, PathList& ws) {
  std::vector<Path> out;
  for (Path p : window) {
    const Vec2 corners[4] = {tx, p.via, p.via2, rx};
    const int legs = p.kind == PathKind::kLineOfSight ? 1
                     : p.kind == PathKind::kReflected ? 2
                                                      : 3;
    double loss = p.walls.reflection_db;
    int crossings = 0;
    for (int l = 0; l < legs; ++l) {
      const Vec2 b = l == legs - 1 ? rx : corners[l + 1];
      loss += plan.leg_blocker_loss_db(corners[l], b, p.kind, ws, crossings);
    }
    for (int l = 0; l < legs; ++l) loss += p.walls.leg_transmission_db[static_cast<std::size_t>(l)];
    if (!(loss <= max_excess)) continue;
    p.excess_loss_db = loss;
    p.blocker_crossings = crossings;
    out.push_back(p);
  }
  return out;
}

// The headline property test: ~12k random (room, endpoints, knobs)
// draws, reference and plan compared field-by-field with exact floating
// point equality. Half the cases force the grid on (grid_min_blockers =
// 0, small cells) so the broad phase is exercised even at low blocker
// counts; the other half run the default config (flat SoA scan below 8
// blockers). A quarter of the draws compare the reference's blocker-free
// trace against the window of a one-node batch trace, which is how the
// plan produces that set. A heavy-blocker arm follows with its own draws:
// 2 bounces, up to 12 more blockers of up to 70 dB, the grid forced on in
// half, so trace_into's price-then-cull step drops paths the blocker-free
// trace kept.
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
    const Room room = random_room(rng, w, h);
    const ref::RayTracer tracer(room);
    RoomPlanConfig cfg;
    if (c % 2 == 1) {
      cfg.grid_min_blockers = 0;
      cfg.grid_cell_m = rng.uniform(0.2, 1.5);
    }
    const RoomPlan plan(room, cfg);

    const Vec2 tx = random_point(rng, w, h);
    Vec2 rx = random_point(rng, w, h);
    if (rx == tx) rx.x += 0.25;
    const int max_bounces = rng.chance(0.35) ? 2 : 1;
    const double max_excess_loss_db = rng.chance(0.2) ? rng.uniform(5.0, 40.0) : 60.0;
    const bool apply_blockers = !rng.chance(0.25);

    const auto ref = tracer.trace(tx, rx, max_excess_loss_db, max_bounces, apply_blockers);
    ws.clear();
    std::span<const Path> fast;
    if (apply_blockers) {
      fast = plan.trace_into(tx, rx, ws, max_excess_loss_db, max_bounces);
    } else {
      plan.build_images(rx, max_bounces, images);
      fast = plan.trace_batch_into(rx, {&tx, 1}, images, ws, offsets, max_excess_loss_db,
                                   max_bounces);
    }
    ASSERT_TRUE(paths_equal(ref, fast)) << "case " << c << " bounces " << max_bounces
                                        << " blockers " << room.blockers().size()
                                        << " grid " << plan.grid_enabled();
  }
  for (int c = 0; c < kHeavyCases; ++c) {
    Rng rng = Rng::stream(0x7e4bULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    Room room = random_room(rng, w, h);
    add_heavy_blockers(rng, room, w, h);
    const ref::RayTracer tracer(room);
    RoomPlanConfig cfg;
    if (c % 2 == 1) {
      cfg.grid_min_blockers = 0;
      cfg.grid_cell_m = rng.uniform(0.2, 1.5);
    }
    const RoomPlan plan(room, cfg);
    const Vec2 tx = random_point(rng, w, h);
    Vec2 rx = random_point(rng, w, h);
    if (rx == tx) rx.x += 0.25;
    const double max_excess_loss_db = rng.chance(0.2) ? rng.uniform(5.0, 40.0) : 60.0;
    ws.clear();
    ASSERT_TRUE(paths_equal(tracer.trace(tx, rx, max_excess_loss_db, 2, true),
                            plan.trace_into(tx, rx, ws, max_excess_loss_db, 2)))
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

  for (const int max_bounces : {1, 2}) {
    ImageTable images;
    plan.build_images(ap, max_bounces, images);
    std::vector<Vec2> nodes;
    for (int i = 0; i < 400; ++i) nodes.push_back(random_point(rng, w, h));

    PathList ws;
    std::vector<std::uint32_t> offsets(nodes.size() + 1);
    const auto all = plan.trace_batch_into(ap, nodes, images, ws, offsets, 60.0, max_bounces);
    EXPECT_EQ(all.size(), ws.size());
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), ws.size());

    PathList single;
    PathList scratch;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto window = ws.slice(offsets[i], offsets[i + 1]);
      const auto ref = tracer.trace(nodes[i], ap, 60.0, max_bounces, true);
      const auto priced = price_window(plan, window, nodes[i], ap, 60.0, scratch);
      ASSERT_TRUE(paths_equal(ref, priced)) << "node " << i << " bounces " << max_bounces;
      single.clear();
      const auto one = plan.trace_into(nodes[i], ap, single, 60.0, max_bounces);
      ASSERT_TRUE(paths_equal(one, priced)) << "node " << i;
      ASSERT_TRUE(paths_equal(tracer.trace(nodes[i], ap, 60.0, max_bounces, false), window))
          << "blocker-free node " << i << " bounces " << max_bounces;
    }
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

  for (const int max_bounces : {1, 2}) {
    for (const double max_excess : {25.0, 60.0}) {
      ImageTable images;
      plan.build_images(ap, max_bounces, images);
      std::vector<Vec2> nodes;
      for (int i = 0; i < 150; ++i) nodes.push_back(random_point(rng, w, h));

      PathList ws;
      PathList scratch;
      std::vector<std::uint32_t> off(nodes.size() + 1);
      const auto all = plan.trace_batch_into(ap, nodes, images, ws, off, max_excess, max_bounces);
      EXPECT_EQ(all.size(), ws.size());
      EXPECT_EQ(off.back(), ws.size());

      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto ref_on = tracer.trace(nodes[i], ap, max_excess, max_bounces, true);
        const auto ref_off = tracer.trace(nodes[i], ap, max_excess, max_bounces, false);
        const auto window = ws.slice(off[i], off[i + 1]);
        ASSERT_TRUE(
            paths_equal(ref_on, price_window(plan, window, nodes[i], ap, max_excess, scratch)))
            << "gains node " << i << " bounces " << max_bounces;
        ASSERT_TRUE(paths_equal(ref_off, window))
            << "blocker-free node " << i << " bounces " << max_bounces;
      }
    }
  }
}

// Repricing a traced path after a blocker move: each blocker-free path's
// wall terms rebuild its traced (wall-only) loss, and priced_loss_db — the
// sum trace_into and the link cache run — equals the leg-by-leg sum, so
// the priced, culled window is the reference's blockers-on trace: the same
// paths in the same order with the same excess-loss doubles and crossing
// counts. Heavy blockers (up to 70 dB) push paths across the cull; the
// grid runs forced on in half the rooms.
TEST(RoomPlanProperty, LegPricingRebuildsTracedLoss) {
  Rng rng(0x1e9);
  for (int c = 0; c < 40; ++c) {
    double w = 0.0;
    double h = 0.0;
    Room room = random_room(rng, w, h);
    add_heavy_blockers(rng, room, w, h);
    RoomPlanConfig cfg;
    if (c % 2 == 1) {
      cfg.grid_min_blockers = 0;
      cfg.grid_cell_m = rng.uniform(0.2, 1.5);
    }
    const RoomPlan plan(room, cfg);
    const ref::RayTracer tracer(room);
    const Vec2 ap = random_point(rng, w, h);
    const int max_bounces = c % 4 < 2 ? 1 : 2;
    const double max_excess = rng.chance(0.5) ? 60.0 : rng.uniform(10.0, 40.0);
    ImageTable images;
    plan.build_images(ap, max_bounces, images);
    std::vector<Vec2> nodes;
    for (int i = 0; i < 20; ++i) nodes.push_back(random_point(rng, w, h));
    PathList ws;
    std::vector<std::uint32_t> off(nodes.size() + 1);
    plan.trace_batch_into(ap, nodes, images, ws, off, max_excess, max_bounces);

    PathList scratch;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto window = ws.slice(off[i], off[i + 1]);
      for (const Path& p : window) {
        double wall_only = p.walls.reflection_db;
        for (const double t : p.walls.leg_transmission_db) wall_only += t;
        EXPECT_EQ(wall_only, p.excess_loss_db) << "room " << c << " node " << i;
      }
      const auto repriced = price_window(plan, window, nodes[i], ap, max_excess, scratch);
      for (const Path& p : repriced) {
        const Vec2 corners[4] = {nodes[i], p.via, p.via2, ap};
        const std::size_t legs = p.kind == PathKind::kLineOfSight ? 1
                                 : p.kind == PathKind::kReflected ? 2
                                                                  : 3;
        std::vector<Vec2> legs_corners(corners, corners + legs);
        legs_corners.push_back(ap);
        int crossings = 0;
        std::vector<double> blocker_db;
        for (std::size_t l = 0; l < legs; ++l)
          blocker_db.push_back(plan.leg_blocker_loss_db(legs_corners[l], legs_corners[l + 1],
                                                        p.kind, scratch, crossings));
        EXPECT_EQ(RoomPlan::priced_loss_db(p.walls, blocker_db), p.excess_loss_db);
        EXPECT_EQ(crossings, p.blocker_crossings);
      }
      ASSERT_TRUE(paths_equal(tracer.trace(nodes[i], ap, max_excess, max_bounces, true), repriced))
          << "room " << c << " node " << i;
    }
  }
}

// Grid edge cases the column-walk must survive: a segment running exactly
// along a cell boundary, a disc spanning many cells, and a disc centred
// on a grid line. The invariant is always the same — bit-identity with
// the reference scan.
TEST(RoomPlanGrid, SegmentAlongCellBoundary) {
  Room room(8.0, 8.0);
  for (int i = 0; i < 10; ++i)
    room.add_blocker({{0.8 * (i + 1), 4.0}, 0.25, 15.0});  // centres on the y=4 line
  const ref::RayTracer tracer(room);
  RoomPlanConfig cfg;
  cfg.grid_cell_m = 1.0;  // y=4.0 is an exact cell boundary
  cfg.grid_min_blockers = 0;
  const RoomPlan plan(room, cfg);
  ASSERT_TRUE(plan.grid_enabled());

  PathList ws;
  // Horizontal segment exactly on the boundary row.
  auto ref = tracer.trace({0.5, 4.0}, {7.5, 4.0});
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
  room.add_blocker({{5.0, 5.0}, 3.0, 25.0});  // 6 m disc across a 1 m grid
  room.add_blocker({{1.0, 9.0}, 0.2, 10.0});
  const ref::RayTracer tracer(room);
  RoomPlanConfig cfg;
  cfg.grid_cell_m = 1.0;
  cfg.grid_min_blockers = 0;
  const RoomPlan plan(room, cfg);
  ASSERT_TRUE(plan.grid_enabled());

  Rng rng(77);
  PathList ws;
  for (int c = 0; c < 500; ++c) {
    const Vec2 tx = random_point(rng, 10.0, 10.0);
    Vec2 rx = random_point(rng, 10.0, 10.0);
    if (rx == tx) rx.x += 0.25;
    const auto ref = tracer.trace(tx, rx, 200.0, 2, true);
    ws.clear();
    const auto fast = plan.trace_into(tx, rx, ws, 200.0, 2);
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
  EXPECT_THROW(plan.trace_into({1.0, 1.0}, {2.0, 2.0}, ws, 60.0, 3), std::invalid_argument);
  EXPECT_THROW(plan.trace_into({1.0, 1.0}, {2.0, 2.0}, ws, 60.0, 0), std::invalid_argument);

  const RoomPlan empty;
  EXPECT_FALSE(empty.compiled());
  EXPECT_THROW(empty.trace_into({1.0, 1.0}, {2.0, 2.0}, ws), std::logic_error);

  ImageTable images;
  plan.build_images({3.0, 2.0}, 1, images);
  std::vector<Vec2> nodes{{1.0, 1.0}};
  std::vector<std::uint32_t> offsets(2);
  // Wrong endpoint for the table.
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.1}, nodes, images, ws, offsets),
               std::invalid_argument);
  // Table lacks the pair images a 2-bounce batch needs.
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, offsets, 60.0, 2),
               std::invalid_argument);
  // Wrong offsets size: it must be nodes.size() + 1.
  std::vector<std::uint32_t> bad(1);
  std::vector<std::uint32_t> long_offsets(3);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, bad), std::invalid_argument);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, {}), std::invalid_argument);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, long_offsets),
               std::invalid_argument);
  // A priced path has 1 to 3 legs, so 1 to 3 blocker terms.
  EXPECT_THROW(RoomPlan::priced_loss_db(WallTerms{}, {}), std::invalid_argument);
  EXPECT_THROW(RoomPlan::priced_loss_db(WallTerms{}, std::vector<double>(4, 0.0)),
               std::invalid_argument);
  // Stale table: the room mutated after build_images.
  room.add_blocker(human_blocker({2.0, 2.0}));
  plan.rebuild(room);
  EXPECT_THROW(plan.trace_batch_into({3.0, 2.0}, nodes, images, ws, offsets),
               std::invalid_argument);
  // Rebuilt table works again.
  plan.build_images({3.0, 2.0}, 1, images);
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
