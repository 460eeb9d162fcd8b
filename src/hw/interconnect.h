// Interconnect link descriptions: PCIe 4.0 (intra-node, RTX 4090 servers),
// NVLink 3 (intra-node, A100 servers), and InfiniBand NICs (inter-node).
#ifndef MEPIPE_HW_INTERCONNECT_H_
#define MEPIPE_HW_INTERCONNECT_H_

#include <string>

#include "common/units.h"

namespace mepipe::hw {

struct LinkSpec {
  std::string name;
  // Achievable point-to-point bandwidth per direction.
  BytesPerSecond bandwidth = 0;
  // Per-message fixed cost (kernel launch + NIC/switch traversal).
  Seconds latency = 0;
  // Traffic on this link crosses the host root complex (PCIe-class
  // fabrics). NIC DMA takes the same path, so a through-host intra-node
  // link contends with inter-node traffic — the single-fabric property
  // of cost-effective clusters (see hw::FabricShareMap::Shares).
  bool through_host = false;

  Seconds transfer_time(Bytes bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

// Presets. Bandwidths are effective (measured-style), not spec-sheet.
LinkSpec Pcie4x16();       // ~25 GB/s effective p2p through host
LinkSpec NvLink3();        // ~250 GB/s effective per direction
LinkSpec Infiniband100G(); // 100 Gb/s NIC ≈ 12 GB/s effective
LinkSpec Infiniband800G(); // 8×100 Gb/s rails ≈ 96 GB/s effective

}  // namespace mepipe::hw

#endif  // MEPIPE_HW_INTERCONNECT_H_
