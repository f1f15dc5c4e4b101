#include "cluster/node.h"

namespace invarnetx::cluster {
namespace {

// The four slave hardware profiles the testbed cycles through.
const NodeSpec kSlaveProfiles[] = {
    // cores, GHz, mem MB, disk MB/s, net Mb/s, cpi factor
    {8, 2.1, 16384.0, 120.0, 1000.0, 1.00},
    {4, 2.6, 8192.0, 105.0, 1000.0, 0.88},
    {12, 1.8, 24576.0, 140.0, 1000.0, 1.18},
    {8, 2.1, 16384.0, 95.0, 1000.0, 1.05},
};

}  // namespace

Cluster Cluster::MakeTestbed(int num_slaves) {
  Cluster cluster;
  for (int i = 0; i <= num_slaves; ++i) {
    SimNode node;
    node.ip = "10.0.0." + std::to_string(i + 1);
    node.role = i == 0 ? NodeRole::kMaster : NodeRole::kSlave;
    node.spec = i == 0 ? NodeSpec() : kSlaveProfiles[(i - 1) % 4];
    cluster.nodes().push_back(std::move(node));
  }
  return cluster;
}

}  // namespace invarnetx::cluster
