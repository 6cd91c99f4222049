// Micro-benchmarks of the per-sample DSP fast path, on the shared sweep
// harness (same flags/JSON as every other bench).
//
// Every stage runs as bench::kSpeedupPairs interleaved pairs of runs with
// the same trials and threads:
//   ref   the retained pre-rewrite forms (tests/reference): one cos/sin
//         pair per sample, twiddle-recurrence FFT, allocating per-call
//         demodulators
//   fast  the production path: rotator NCO/Goertzel, plan-based FFT,
//         block FIR, and the FramePipeline frame context
// and the table and the JSON's `speedup_<stage>` scalars give the median
// of the pairs' fast / ref throughput ratios. CI's bench-perf lane gates (bench/gates.txt) goertzel at
// >= 3x and the fig11-style frame stage (synthesize -> AWGN -> joint
// demodulate at the pinned config) at >= 2x.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/dsp/fft.hpp"
#include "mmx/dsp/fir.hpp"
#include "mmx/dsp/goertzel.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/dsp/tone.hpp"
#include "mmx/dsp/workspace.hpp"
#include "mmx/phy/pipeline.hpp"
#include "reference_kernels.hpp"

using namespace mmx;

namespace {

// Pinned fig11-style operating point (paper §9: 1 Mb/s link, ±2 MHz
// tones, 9 dB level gap between the beams, 20 dB SNR).
constexpr std::size_t kFrameBits = 1000;
constexpr double kSnrDb = 20.0;
const phy::Bits kPrefix = {1, 0, 1, 0};

phy::PhyConfig pinned_config() {
  phy::PhyConfig cfg;
  cfg.symbol_rate_hz = 1e6;
  cfg.samples_per_symbol = 16;
  cfg.fsk_freq0_hz = -2e6;
  cfg.fsk_freq1_hz = 2e6;
  return cfg;
}

const phy::OtamChannel kChannel{{1e-4, 0.0}, {1e-3, 0.0}};

dsp::Cvec noise_block(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return dsp::awgn(n, 1.0, rng);
}

// Each trial returns a checksum/BER so the work cannot be optimized away
// and ref/fast runs can be sanity-compared in the JSON metrics.

double trial_goertzel(bool fast) {
  static const dsp::Cvec x = noise_block(4096, 1);
  const double fs = 16e6;
  if (fast) {
    static const dsp::GoertzelBank bank({-2e6, 2e6}, fs);
    double p[2];
    bank.measure(x, p);
    return p[0] + p[1];
  }
  return refdsp::goertzel_power(x, -2e6, fs) + refdsp::goertzel_power(x, 2e6, fs);
}

double trial_fft(bool fast) {
  static const dsp::Cvec x = noise_block(1024, 2);
  thread_local dsp::Cvec buf;
  buf = x;
  if (fast) {
    dsp::fft_inplace(buf);
  } else {
    refdsp::fft_inplace(buf);
  }
  return buf[1].real();
}

double trial_fir(bool fast) {
  static const dsp::Rvec taps = dsp::design_lowpass(16e6, 2e6, 63);
  static const dsp::Cvec x = noise_block(4096, 3);
  if (fast) {
    thread_local dsp::FirFilter f(taps);
    thread_local dsp::Cvec out;
    f.reset();  // fresh state every trial keeps results scheduling-independent
    out.resize(x.size());
    f.process_into(x, out, dsp::DspWorkspace::tls());
    return out[100].real();
  }
  return refdsp::fir_apply(taps, x)[100].real();
}

double trial_nco(bool fast) {
  constexpr std::size_t kSamples = 65536;
  if (fast) {
    thread_local dsp::Cvec buf(kSamples);
    dsp::Nco nco(16e6, 1.7e6);
    nco.generate_into(buf);
    return buf.back().real();
  }
  refdsp::RefNco nco(16e6, 1.7e6);
  return nco.generate(kSamples).back().real();
}

const phy::Bits& frame_bits(Rng& rng) {
  thread_local phy::Bits frame;
  frame.assign(kPrefix.begin(), kPrefix.end());
  for (std::size_t i = 0; i < kFrameBits; ++i) frame.push_back(rng.chance(0.5) ? 1 : 0);
  return frame;
}

double trial_otam(bool fast, Rng& rng) {
  const phy::PhyConfig cfg = pinned_config();
  const rf::SpdtSwitch spdt;
  const phy::Bits& bits = frame_bits(rng);
  if (fast) {
    phy::FramePipeline& pipe = phy::thread_pipeline(cfg);
    pipe.synthesize_otam(bits, kChannel, spdt);
    return std::abs(pipe.rx()[5]);
  }
  return std::abs(refdsp::otam_synthesize(bits, cfg, kChannel, spdt)[5]);
}

double trial_fig11(bool fast, Rng& rng) {
  const phy::PhyConfig cfg = pinned_config();
  const rf::SpdtSwitch spdt;
  const phy::Bits& bits = frame_bits(rng);
  std::size_t errors = 0;
  if (fast) {
    phy::FramePipeline& pipe = phy::thread_pipeline(cfg);
    pipe.synthesize_otam(bits, kChannel, spdt);
    pipe.add_noise_snr(kSnrDb, rng);
    const phy::JointDecision& d = pipe.demodulate_joint(kPrefix);
    for (std::size_t i = kPrefix.size(); i < bits.size(); ++i) errors += (d.bits[i] != bits[i]);
  } else {
    dsp::Cvec rx = refdsp::otam_synthesize(bits, cfg, kChannel, spdt);
    dsp::add_awgn_snr(rx, kSnrDb, rng);
    const phy::JointDecision d = refdsp::joint_demodulate(rx, cfg, kPrefix);
    for (std::size_t i = kPrefix.size(); i < bits.size(); ++i) errors += (d.bits[i] != bits[i]);
  }
  return static_cast<double>(errors) / static_cast<double>(kFrameBits);
}

const std::vector<std::string> kStages = {"goertzel", "fig11", "fft", "fir", "otam", "nco"};

sim::SweepResult<double> run_stage(const std::string& stage, bool fast,
                                   sim::SweepRunner& runner) {
  if (stage == "goertzel") return runner.run([&](std::size_t, Rng&) { return trial_goertzel(fast); });
  if (stage == "fft") return runner.run([&](std::size_t, Rng&) { return trial_fft(fast); });
  if (stage == "fir") return runner.run([&](std::size_t, Rng&) { return trial_fir(fast); });
  if (stage == "nco") return runner.run([&](std::size_t, Rng&) { return trial_nco(fast); });
  if (stage == "otam") return runner.run([&](std::size_t, Rng& rng) { return trial_otam(fast, rng); });
  return runner.run([&](std::size_t, Rng& rng) { return trial_fig11(fast, rng); });
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(
      argc, argv, /*default_trials=*/600, /*default_seed=*/0x6d6d5821ULL, "trials per stage");
  sim::SweepRunner runner(opt.sweep);
  bench::JsonReport report("micro_dsp", opt);
  std::printf("# micro_dsp — ref vs fast kernels, %zu trials/stage, %zu threads,"
              " %zu interleaved pairs (medians)\n",
              opt.sweep.trials, runner.threads(), bench::kSpeedupPairs);
  std::printf("%-10s %14s %14s %9s %9s %9s\n", "stage", "ref trials/s", "fast trials/s",
              "speedup", "min", "max");
  for (const std::string& s : kStages) {
    const bench::PairedStage st =
        bench::time_pairs([&](bool fast) { return run_stage(s, fast, runner); });
    std::printf("%-10s %14.1f %14.1f %8.2fx %8.2fx %8.2fx\n", s.c_str(), st.ref_trials_per_s,
                st.fast.trials_per_s, st.speedup, st.speedup_min, st.speedup_max);
    report.add_scalar("speedup_" + s, st.speedup);
    if (s == "fig11") report.record(st.fast);
  }
  return report.write() ? 0 : 1;
}
