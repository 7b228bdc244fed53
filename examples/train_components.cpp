// Offline training of AutoPipe's learned components (§4.3): generate a
// simulator-labelled speed dataset, train the meta-network, train the RL
// arbiter on randomized dynamic episodes, save both to disk, reload them
// and deploy the full learned stack on a fresh dynamic scenario.
//
//   ./examples/train_components [samples] [episodes]
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "scenario/training.hpp"
#include "scenario/world.hpp"
#include "sim/trace.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  const std::size_t samples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120;
  const std::size_t episodes =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10;

  const models::ModelSpec model = models::resnet50();
  core::FeatureConfig feature_config;
  feature_config.throughput_scale = 2000.0;  // ResNet50's operating range
  const core::FeatureEncoder encoder(feature_config);

  // 1) Speed dataset from randomized shared-cluster scenarios.
  std::cout << "generating " << samples << " simulator-labelled samples...\n";
  auto dataset = core::generate_speed_dataset(model, samples, 7, encoder);

  // 2) Train the meta-network.
  core::MetaNetworkConfig meta_config;
  meta_config.dynamic_dim = encoder.dynamic_dim();
  meta_config.static_dim = encoder.static_dim();
  meta_config.partition_dim = encoder.partition_dim();
  core::MetaNetwork meta(meta_config, 11);
  const auto meta_result = core::train_meta_network(meta, dataset, 40, 16, 3);
  std::cout << "meta-network: train loss "
            << TextTable::num(meta_result.train_loss, 4) << ", validation "
            << TextTable::num(meta_result.validation_loss, 4) << "\n";

  // 3) Train the arbiter on dynamic episodes (exploring).
  rl::DqnConfig dqn_config;
  dqn_config.state_dim = encoder.arbiter_dim();
  rl::DqnAgent agent(dqn_config, 13);
  std::cout << "training arbiter on " << episodes << " episodes...\n";
  const auto arbiter_result =
      core::train_arbiter_offline(agent, model, episodes, 25, 17, &meta);
  std::cout << "arbiter: " << arbiter_result.total_switches
            << " exploratory switches, mean episode throughput "
            << TextTable::num(arbiter_result.mean_episode_throughput, 1)
            << " img/s\n";

  // 4) Save both, reload into fresh instances (the deployment path).
  {
    std::ofstream meta_file("autopipe_meta.net");
    meta.save(meta_file);
    std::ofstream agent_file("autopipe_arbiter.net");
    agent.save(agent_file);
  }
  core::MetaNetwork deployed_meta(meta_config, 999);
  rl::DqnAgent deployed_agent(dqn_config, 999);
  {
    std::ifstream meta_file("autopipe_meta.net");
    deployed_meta.load(meta_file);
    std::ifstream agent_file("autopipe_arbiter.net");
    deployed_agent.load(agent_file);
  }
  deployed_meta.begin_online_adaptation();
  deployed_agent.begin_online_adaptation();
  std::cout << "saved + reloaded autopipe_meta.net / autopipe_arbiter.net\n";

  // 5) Deploy on a fresh dynamic scenario.
  scenario::Spec spec;
  spec.cluster.nic_bandwidth = gbps(25);
  spec.job.model = model;
  core::ControllerConfig controller_config;
  controller_config.arbiter_mode = core::ControllerConfig::ArbiterMode::kRl;
  controller_config.use_meta_network = true;
  spec.job.controller = controller_config;
  spec.job.meta = &deployed_meta;
  spec.job.agent = &deployed_agent;
  spec.job.encoder = encoder;
  spec.job.iterations = 60;
  spec.job.warmup = 10;
  scenario::World world(std::move(spec));

  sim::ResourceTrace trace;
  trace.at_iteration(20, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  for (sim::WorkerId w : {0u, 1u, 2u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));
  world.set_resource_trace(&trace);
  const scenario::Summary summary = world.run();
  std::cout << "deployed run: " << TextTable::num(summary.throughput, 1)
            << " img/s, " << summary.switches << " switches, "
            << world.controller()->stats().decisions << " decisions\n";
  return 0;
}
