// mmx_cli — command-line front end for quick what-if studies.
//
//   mmx_cli link <x> <y> <orient_deg> [--rate MBPS] [--blocker] [--room WxH]
//   mmx_cli map [--step M] [--blocker] [--room WxH]
//   mmx_cli range [--max M]
//   mmx_cli multinode <count> [--trials N]
//   mmx_cli scenario <nodes> [--duration S] [--walkers N]
//
// Every command prints a short, greppable report; exit code 0 on success.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "mmx/core/scenario.hpp"
#include "mmx/sim/network_sim.hpp"
#include "mmx/sim/stats.hpp"

using namespace mmx;

namespace {

struct Args {
  std::vector<std::string> positional;
  double rate_mbps = 10.0;
  bool blocker = false;
  double room_w = 6.0;
  double room_h = 4.0;
  double step = 0.5;
  double max_range = 20.0;
  int trials = 50;
  double duration = 3.0;
  int walkers = 2;
};

bool parse(int argc, char** argv, Args& out) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_value = [&](double& dst) {
      if (i + 1 >= argc) return false;
      dst = std::atof(argv[++i]);
      return true;
    };
    if (a == "--blocker") {
      out.blocker = true;
    } else if (a == "--rate") {
      if (!next_value(out.rate_mbps)) return false;
    } else if (a == "--step") {
      if (!next_value(out.step)) return false;
    } else if (a == "--max") {
      if (!next_value(out.max_range)) return false;
    } else if (a == "--duration") {
      if (!next_value(out.duration)) return false;
    } else if (a == "--trials") {
      double v;
      if (!next_value(v)) return false;
      out.trials = static_cast<int>(v);
    } else if (a == "--walkers") {
      double v;
      if (!next_value(v)) return false;
      out.walkers = static_cast<int>(v);
    } else if (a == "--room") {
      if (i + 1 >= argc) return false;
      const std::string spec = argv[++i];
      const auto xpos = spec.find('x');
      if (xpos == std::string::npos) return false;
      out.room_w = std::atof(spec.substr(0, xpos).c_str());
      out.room_h = std::atof(spec.substr(xpos + 1).c_str());
    } else if (!a.empty() && a[0] != '-') {
      out.positional.push_back(a);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int cmd_link(const Args& args) {
  if (args.positional.size() < 3) {
    std::fprintf(stderr, "usage: mmx_cli link <x> <y> <orient_deg> [--rate MBPS] [--blocker]\n");
    return 2;
  }
  channel::Room room(args.room_w, args.room_h);
  const channel::Pose ap{{args.room_w - 0.3, args.room_h / 2.0}, kPi};
  const channel::Pose node{{std::atof(args.positional[0].c_str()),
                            std::atof(args.positional[1].c_str())},
                           deg_to_rad(std::atof(args.positional[2].c_str()))};
  if (args.blocker) channel::park_blocker_on_los(room, node.position, ap.position);
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  const auto paths = plan.trace_into(node.position, ap.position, ws);
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  const auto modes =
      baseline::compare_modes(paths, node, beams, ap, ap_ant, 24.125e9, budget, spdt);
  std::printf("link: node (%.2f, %.2f) @ %.0f deg -> AP (%.2f, %.2f)%s\n", node.position.x,
              node.position.y, rad_to_deg(node.orientation_rad), ap.position.x, ap.position.y,
              args.blocker ? " [LoS blocked]" : "");
  std::printf("  OTAM:       SNR %6.1f dB   contrast %5.1f dB   joint BER %.2e\n",
              modes.with_otam.snr_db, modes.with_otam.contrast_db, modes.with_otam.joint_ber);
  std::printf("  fixed beam: SNR %6.1f dB   contrast %5.1f dB   joint BER %.2e\n",
              modes.without_otam.snr_db, modes.without_otam.contrast_db,
              modes.without_otam.joint_ber);
  return 0;
}

int cmd_map(const Args& args) {
  const channel::Pose ap{{args.room_w - 0.3, args.room_h / 2.0}, kPi};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  channel::PathList ws;
  std::printf("OTAM SNR map [dB], room %.1fx%.1f, AP right-centre%s\n", args.room_w,
              args.room_h, args.blocker ? ", person on each LoS" : "");
  for (double y = args.step / 2.0; y < args.room_h; y += args.step) {
    for (double x = args.step / 2.0; x < args.room_w - 0.5; x += args.step) {
      channel::Room room(args.room_w, args.room_h);
      if (args.blocker) channel::park_blocker_on_los(room, {x, y}, ap.position);
      const channel::RoomPlan plan(room);
      const channel::Pose node{{x, y}, 0.0};
      ws.clear();
      const auto paths = plan.trace_into(node.position, ap.position, ws);
      const auto g = channel::compute_beam_gains_avg(paths, node, beams, ap, ap_ant, 24.125e9);
      std::printf("%6.1f", budget.evaluate_otam(g, spdt).snr_db);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_range(const Args& args) {
  channel::Room hall(args.max_range + 2.0, 8.0);
  const channel::RoomPlan plan(hall);
  channel::PathList ws;
  const channel::Pose ap{{args.max_range + 1.0, 4.0}, kPi};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  std::puts("distance_m snr_facing_db snr_45deg_db");
  for (double d = 1.0; d <= args.max_range; d += 1.0) {
    const channel::Pose facing{{ap.position.x - d, 4.0}, 0.0};
    const channel::Pose away{{ap.position.x - d, 4.0}, deg_to_rad(45.0)};
    // Both orientations share a position, so one trace serves both.
    ws.clear();
    const auto paths = plan.trace_into(facing.position, ap.position, ws);
    const auto gf = channel::compute_beam_gains(paths, facing, beams, ap, ap_ant, 24.125e9);
    const auto ga = channel::compute_beam_gains(paths, away, beams, ap, ap_ant, 24.125e9);
    std::printf("%10.0f %13.1f %12.1f\n", d, budget.evaluate_otam(gf, spdt).snr_db,
                budget.evaluate_otam(ga, spdt).snr_db);
  }
  return 0;
}

int cmd_multinode(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: mmx_cli multinode <count> [--trials N]\n");
    return 2;
  }
  const int k = std::atoi(args.positional[0].c_str());
  Rng rng(1);
  std::vector<double> all;
  for (int t = 0; t < args.trials; ++t) {
    sim::NetworkSimulator net(channel::Room(args.room_w, args.room_h),
                              channel::Pose{{args.room_w - 0.3, args.room_h / 2.0}, kPi});
    int placed = 0;
    int attempts = 0;
    while (placed < k && attempts < 50 * k) {
      ++attempts;
      const channel::Pose pose{{rng.uniform(0.4, args.room_w - 0.8),
                                rng.uniform(0.4, args.room_h - 0.4)},
                               deg_to_rad(rng.uniform(-60.0, 60.0))};
      if (net.add_node(pose, args.rate_mbps * 1e6)) ++placed;
    }
    for (const auto& [id, s] : net.sinr_all_db()) all.push_back(s);
  }
  std::printf("nodes=%d trials=%d mean_sinr=%.1f dB p10=%.1f p90=%.1f\n", k, args.trials,
              sim::mean(all), sim::percentile(all, 10.0), sim::percentile(all, 90.0));
  return 0;
}

int cmd_scenario(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: mmx_cli scenario <nodes> [--duration S] [--walkers N]\n");
    return 2;
  }
  const int k = std::atoi(args.positional[0].c_str());
  Rng rng(2);
  core::Network net(channel::Room(args.room_w, args.room_h),
                    channel::Pose{{args.room_w - 0.3, args.room_h / 2.0}, kPi});
  std::vector<core::ScenarioNode> nodes;
  for (int i = 0; i < k; ++i) {
    nodes.push_back({{{rng.uniform(0.4, args.room_w - 0.8),
                       rng.uniform(0.4, args.room_h - 0.4)},
                      deg_to_rad(rng.uniform(-45.0, 45.0))},
                     args.rate_mbps * 1e6, 0.05, 256});
  }
  core::ScenarioConfig cfg;
  cfg.duration_s = args.duration;
  cfg.walkers = static_cast<std::size_t>(args.walkers);
  const auto result = core::run_scenario(net, nodes, cfg);
  std::printf("scenario: %zu nodes joined (%zu denied), %zu events\n", result.nodes.size(),
              result.joins_denied, result.events_executed);
  for (const auto& n : result.nodes) {
    std::printf("  node %2u: sent %4zu delivered %5.1f%% inversions %4zu snr %5.1f dB "
                "goodput %6.0f kbps\n",
                n.id, n.frames_sent, 100.0 * n.delivery_ratio(), n.inversions, n.mean_snr_db,
                n.goodput_bps / 1e3);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mmx_cli <link|map|range|multinode|scenario> [args] [flags]\n");
    return 2;
  }
  Args args;
  if (!parse(argc, argv, args)) return 2;
  const std::string cmd = argv[1];
  if (cmd == "link") return cmd_link(args);
  if (cmd == "map") return cmd_map(args);
  if (cmd == "range") return cmd_range(args);
  if (cmd == "multinode") return cmd_multinode(args);
  if (cmd == "scenario") return cmd_scenario(args);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
