// The meta-network of Fig 7: an LSTM block consumes a window of dynamic
// metric timesteps; its final hidden state is concatenated with the static
// metrics and the candidate worker-partition encoding, and fully-connected
// layers regress the training speed that partition would achieve — letting
// AutoPipe rank candidate partitions without deploying them.
//
// Training is offline on simulator-labelled samples, followed by online
// adaptation (transfer learning at a reduced learning rate, §4.3).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "nn/lstm.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace autopipe::core {

struct MetaNetworkConfig {
  std::size_t dynamic_dim = 0;
  std::size_t static_dim = 0;
  std::size_t partition_dim = 0;
  std::size_t lstm_hidden = 32;
  std::vector<std::size_t> head_hidden = {64, 32};
  double learning_rate = 1e-3;
};

/// The LSTM window: how many dynamic-metric timesteps the controller keeps
/// and a speed sample carries.
inline constexpr std::size_t kHistoryWindow = 8;

/// One supervised sample: a window of dynamic-metric timesteps, the static
/// and partition encodings, and the (normalized) speed the simulator
/// measured for that configuration.
struct SpeedSample {
  std::vector<std::vector<double>> dynamic_seq;
  std::vector<double> static_feat;
  std::vector<double> partition_feat;
  double target = 0.0;  // normalized samples/sec
};

class MetaNetwork {
 public:
  MetaNetwork(MetaNetworkConfig config, std::uint64_t seed);

  /// Predicted normalized training speed for one configuration.
  double predict(const std::vector<std::vector<double>>& dynamic_seq,
                 const std::vector<double>& static_feat,
                 const std::vector<double>& partition_feat);

  /// One gradient step over a mini-batch; returns the mean squared error.
  double train_batch(const std::vector<SpeedSample>& batch);

  /// Transfer-learning mode for deployment: shrink the learning rate so
  /// online updates adapt without forgetting.
  void begin_online_adaptation(double lr_scale = 0.1);

  const MetaNetworkConfig& config() const { return config_; }

  /// Lifetime count of predict() calls — the denominator a calibration
  /// report uses to relate ledger coverage to predictor load.
  std::size_t predictions() const { return predictions_; }

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  nn::Matrix forward_one(const SpeedSample& sample);

  MetaNetworkConfig config_;
  nn::Lstm lstm_;
  nn::Mlp head_;
  nn::Adam optimizer_;
  std::size_t predictions_ = 0;
};

}  // namespace autopipe::core
