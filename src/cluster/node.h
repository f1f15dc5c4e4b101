#ifndef INVARNETX_CLUSTER_NODE_H_
#define INVARNETX_CLUSTER_NODE_H_

#include <string>
#include <vector>

#include "cluster/drivers.h"
#include "common/status.h"

namespace invarnetx::cluster {

// Role of a node in the (simulated) Hadoop deployment.
enum class NodeRole {
  kMaster,  // JobTracker + NameNode
  kSlave,   // TaskTracker + DataNode
};

// Hardware description, mirroring the paper's testbed machines
// (2 x 4-core Xeon 2.1 GHz, 16 GB RAM, 1 TB disk, gigabit NIC).
struct NodeSpec {
  int cores = 8;
  double freq_ghz = 2.1;
  double mem_total_mb = 16384.0;
  double disk_mbps = 120.0;  // sequential bandwidth at util 1.0
  double net_mbps = 1000.0;
  // Micro-architectural CPI multiplier relative to the reference machine
  // (cache sizes, memory latency); this is the hardware heterogeneity that
  // makes per-node operation contexts necessary.
  double cpi_factor = 1.0;
};

// One simulated machine.
struct SimNode {
  std::string ip;
  NodeRole role = NodeRole::kSlave;
  NodeSpec spec;
  DriverState drivers;

  // Peak instruction retirement per second at CPI = 1 (all cores busy).
  double InstructionsPerSecondAtCpi1() const {
    return spec.cores * spec.freq_ghz * 1e9;
  }

  // Workload I/O demand is expressed relative to the 120 MB/s reference
  // device; a slower disk serves the same absolute demand at higher
  // utilization (and saturates sooner).
  double DiskDemandScale() const { return 120.0 / spec.disk_mbps; }
};

// The whole deployment: node 0 is the master, the rest are slaves.
class Cluster {
 public:
  // Builds the 5-machine testbed: 1 master + `num_slaves` slaves with
  // addresses 10.0.0.1 .. 10.0.0.(1+num_slaves). Slaves cycle through four
  // heterogeneous hardware profiles (big-data clusters are rarely uniform,
  // and heterogeneity is what per-node operation contexts adapt to).
  static Cluster MakeTestbed(int num_slaves = 4);

  size_t size() const { return nodes_.size(); }
  SimNode& node(size_t i) { return nodes_[i]; }
  const SimNode& node(size_t i) const { return nodes_[i]; }

  SimNode& master() { return nodes_[0]; }
  // Slave indices are 1..size()-1.
  size_t num_slaves() const { return nodes_.size() - 1; }
  SimNode& slave(size_t i) { return nodes_[i + 1]; }
  const SimNode& slave(size_t i) const { return nodes_[i + 1]; }

  std::vector<SimNode>& nodes() { return nodes_; }
  const std::vector<SimNode>& nodes() const { return nodes_; }

 private:
  std::vector<SimNode> nodes_;
};

}  // namespace invarnetx::cluster

#endif  // INVARNETX_CLUSTER_NODE_H_
