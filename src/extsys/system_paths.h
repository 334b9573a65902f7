// The fixed name-space paths of the system's telemetry and control planes.
// The services bind them and the supervisor names them in audit records, so
// they are defined once, here.

#ifndef XSEC_SRC_EXTSYS_SYSTEM_PATHS_H_
#define XSEC_SRC_EXTSYS_SYSTEM_PATHS_H_

#include <string_view>

namespace xsec {

// Stats tree (StatsService) and its procedures.
inline constexpr std::string_view kStatsMountPath = "/sys/monitor";
inline constexpr std::string_view kStatsServicePath = "/svc/stats";
// Supervision health leaves (StatsService::MountHealth, HealthService).
inline constexpr std::string_view kHealthMountPath = "/sys/monitor/health";
inline constexpr std::string_view kHealthServicePath = "/svc/health";
// StatsService::MountHealth binds the health leaves relative to the stats
// mount, at "health/...".
static_assert(kHealthMountPath.substr(0, kStatsMountPath.size()) == kStatsMountPath &&
              kHealthMountPath.substr(kStatsMountPath.size()) == "/health");
// Failpoint control plane (FaultService).
inline constexpr std::string_view kFaultMountPath = "/sys/faults";
inline constexpr std::string_view kFaultServicePath = "/svc/faults";

}  // namespace xsec

#endif  // XSEC_SRC_EXTSYS_SYSTEM_PATHS_H_
