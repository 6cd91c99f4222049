// One propagation path between two points, and what the channel layer
// derives from a traced path set. Indoor mmWave links have "a few paths"
// (paper §2): LoS plus single-bounce reflections, with per-path angles
// for the antenna patterns at both ends. RoomPlan (room_plan.hpp) traces
// them.
#pragma once

#include <array>
#include <complex>
#include <span>

#include "mmx/common/geometry.hpp"

namespace mmx::channel {

enum class PathKind { kLineOfSight, kReflected };

/// The blocker-free loss terms of one traced path, the doubles the trace
/// adds: the reflection loss (0 for line of sight) and one transmission
/// term per leg. RoomPlan::priced_loss_db adds one blocker term per leg
/// to them.
struct WallTerms {
  double reflection_db = 0.0;
  std::array<double, 2> leg_transmission_db{};  ///< per leg; a LoS leaves [1] at 0
};

struct Path {
  PathKind kind = PathKind::kLineOfSight;
  double length_m = 0.0;
  /// Departure direction at the transmitter (global frame angle).
  double departure_rad = 0.0;
  /// Arrival direction at the receiver: the direction the energy comes
  /// *from*, seen from the receiver (global frame angle).
  double arrival_rad = 0.0;
  /// Loss beyond free space: reflection + transmission + blocker losses [dB].
  double excess_loss_db = 0.0;
  /// Number of blockers the path crosses.
  int blocker_crossings = 0;
  /// Index of the reflecting wall in Room::walls() (-1 for LoS).
  int wall_index = -1;
  /// Reflection point (reflected paths).
  Vec2 via{};
  /// The wall terms of excess_loss_db (RoomPlan fills them; 0 elsewhere).
  WallTerms walls{};
};

/// Complex amplitude gain of one path at `freq_hz` (isotropic ends).
std::complex<double> path_amplitude(const Path& path, double freq_hz);

/// Power-weighted RMS delay spread [s] of a path set at `freq_hz` —
/// the metric that says whether a channel is flat across an mmX FDM
/// channel (indoor mmWave: a few ns, i.e. flat over tens of MHz).
double rms_delay_spread_s(std::span<const Path> paths, double freq_hz);

}  // namespace mmx::channel
