#include "mmx/mac/arq.hpp"

#include <stdexcept>

#include "mmx/obs/obs.hpp"

namespace mmx::mac {

void ArqStats::publish_obs() const {
  MMX_OBS_COUNT("mac.arq.transmissions", transmissions);
  MMX_OBS_COUNT("mac.arq.delivered", delivered);
  MMX_OBS_COUNT("mac.arq.gave_up", gave_up);
  MMX_OBS_COUNT("mac.arq.duplicate_acks", duplicate_acks);
}

ArqSender::ArqSender(ArqConfig cfg) : cfg_(cfg) {
  // Each test is phrased to fail on NaN.
  if (cfg.max_retries < 0) throw std::invalid_argument("ArqSender: max_retries must be >= 0");
  if (!(cfg.timeout_s > 0.0)) throw std::invalid_argument("ArqSender: timeout must be > 0");
  if (!(cfg.backoff_factor >= 1.0))
    throw std::invalid_argument("ArqSender: backoff_factor must be >= 1");
  if (!(cfg.max_timeout_s >= 0.0))
    throw std::invalid_argument("ArqSender: max_timeout_s must be >= 0");
}

double ArqSender::current_timeout_s() const {
  double t = cfg_.timeout_s;
  for (int i = 1; i < attempts_; ++i) {
    t *= cfg_.backoff_factor;
    if (cfg_.max_timeout_s > 0.0 && t >= cfg_.max_timeout_s) return cfg_.max_timeout_s;
  }
  return t;
}

bool ArqSender::offer(std::uint16_t seq) {
  if (in_flight_) return false;
  seq_ = seq;
  attempts_ = 0;
  in_flight_ = true;
  awaiting_ack_ = false;
  return true;
}

void ArqSender::on_transmitted() {
  if (!in_flight_ || awaiting_ack_)
    throw std::logic_error("ArqSender: no frame pending transmission");
  ++attempts_;
  ++stats_.transmissions;
  awaiting_ack_ = true;
}

void ArqSender::on_ack(std::uint16_t seq) {
  if (!in_flight_ || !awaiting_ack_ || seq != seq_) {
    ++stats_.duplicate_acks;
    return;
  }
  ++stats_.delivered;
  in_flight_ = false;
  awaiting_ack_ = false;
}

void ArqSender::on_timeout() {
  if (!awaiting_ack_) return;  // spurious timer
  awaiting_ack_ = false;
  if (attempts_ > cfg_.max_retries) {
    ++stats_.gave_up;
    in_flight_ = false;
  }
}

ArqSender::Action ArqSender::next_action() const {
  if (!in_flight_) return Action::kIdle;
  if (awaiting_ack_) return Action::kWaitAck;
  return Action::kTransmit;
}

bool ArqReceiver::accept(std::uint16_t node_id, std::uint16_t seq) {
  Entry& e = slots_[node_id % kSlots];
  if (e.valid && e.node_id == node_id && e.last_seq == seq) return false;  // duplicate
  e.node_id = node_id;
  e.last_seq = seq;
  e.valid = true;
  return true;
}

}  // namespace mmx::mac
