#include "mmx/phy/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "mmx/dsp/noise.hpp"

namespace mmx::phy {

FramePipeline::FramePipeline(const PhyConfig& cfg) : cfg_(cfg), bank_(fsk_tone_bank(cfg)) {
  cfg_.validate();
}

void FramePipeline::synthesize_otam(const Bits& bits, const OtamChannel& channel,
                                    const rf::SpdtSwitch& spdt, double tx_amplitude) {
  otam_synthesize_into(bits, cfg_, channel, spdt, rx_, tx_amplitude);
}

void FramePipeline::modulate_ask(const Bits& bits, AskLevels levels) {
  ask_modulate_into(bits, cfg_, rx_, levels);
}

void FramePipeline::modulate_fsk(const Bits& bits) {
  fsk_modulate_into(bits, cfg_, rx_);
}

void FramePipeline::load(std::span<const dsp::Complex> capture) {
  rx_.resize(capture.size());  // mmx-analyze: allow(hot-path-alloc) -- member capture buffer reuses capacity; alloc_events() stability pinned by pipeline_test
  std::copy(capture.begin(), capture.end(), rx_.begin());
}

void FramePipeline::add_noise(double power_lin, Rng& rng) {
  dsp::add_awgn(rx_, power_lin, rng);
}

void FramePipeline::add_noise_snr(double snr_db, Rng& rng) {
  dsp::add_awgn_snr(rx_, snr_db, rng);
}

const AskDecision& FramePipeline::demodulate_ask(const Bits& known_prefix) {
  ask_demodulate_into(rx_, cfg_, known_prefix, ws_, ask_);
  return ask_;
}

const FskDecision& FramePipeline::demodulate_fsk() {
  fsk_demodulate_into(rx_, cfg_, bank_, ws_, fsk_);
  return fsk_;
}

const JointDecision& FramePipeline::demodulate_joint(const Bits& known_prefix) {
  joint_demodulate_into(rx_, cfg_, known_prefix, bank_, ws_, joint_ask_, joint_fsk_, joint_);
  return joint_;
}

FramePipeline& thread_pipeline(const PhyConfig& cfg) {
  // One pool per thread: pipelines are not thread-safe, and per-thread
  // instances keep parallel sweeps bit-identical at any thread count.
  thread_local std::vector<std::unique_ptr<FramePipeline>> pool;
  for (const auto& p : pool)
    if (p->config() == cfg) return *p;
  pool.push_back(std::make_unique<FramePipeline>(cfg));
  return *pool.back();
}

}  // namespace mmx::phy
