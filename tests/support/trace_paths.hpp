// Test-side tracing helper. RoomPlan traces into a caller-owned PathList,
// which suits production loops but not tests that hold several path sets
// at once or mutate the room between traces. trace_paths compiles a plan
// of the room as it is now, traces once, and copies the paths out.
#pragma once

#include <vector>

#include "mmx/channel/room_plan.hpp"

namespace mmx::test {

inline std::vector<channel::Path> trace_paths(const channel::Room& room, Vec2 tx, Vec2 rx,
                                              double max_excess_loss_db = 60.0,
                                              int max_bounces = 1) {
  channel::PathList ws;
  const auto paths =
      channel::RoomPlan(room).trace_into(tx, rx, ws, max_excess_loss_db, max_bounces);
  return {paths.begin(), paths.end()};
}

}  // namespace mmx::test
