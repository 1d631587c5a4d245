// MaintenanceModel: collateral impact of breakout-bundle repair
// (Section 8). When a breakout leg is repaired, its healthy siblings go
// down for a maintenance window ending at the ticket's completion; this
// component schedules the window, takes the siblings out, accounts
// capacity violations, and restores them when the technician finishes.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "sim/sim_context.h"

namespace corropt::sim {

class MaintenanceModel {
 public:
  // Registers the kMaintenanceStart handler on the kernel.
  explicit MaintenanceModel(SimContext& ctx);

  // Called when a ticket opens: schedules the window so it ends at the
  // ticket's completion. No-op unless collateral modeling is on and the
  // link actually has breakout siblings.
  void schedule(common::LinkId link, int attempt, SimTime now,
                SimTime completion);

  // The technician is done: any maintenance window on this link closes
  // and the healthy siblings come back.
  void end(common::LinkId link);

  // Checkpointing (DESIGN.md §14): the collateral bookkeeping, in
  // link-id order (the map is only ever accessed by key, so insertion
  // order is not behavior; sorting keeps checkpoint bytes canonical).
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  void start(common::LinkId link);

  SimContext& ctx_;
  // Healthy breakout siblings we took down for each link's maintenance.
  std::unordered_map<common::LinkId, std::vector<common::LinkId>>
      collateral_down_;
};

}  // namespace corropt::sim
