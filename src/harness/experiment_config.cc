/**
 * @file
 * ExperimentConfig helpers.
 */

#include "experiment_config.hh"

#include <cstdio>

#include "sim/checker/invariant_checker.hh"
#include "sim/event_queue.hh"
#include "trace/tracer.hh"

namespace harness
{

const char *
nfKindName(NfKind kind)
{
    switch (kind) {
      case NfKind::TouchDrop:
        return "TouchDrop";
      case NfKind::CopyTouchDrop:
        return "CopyTouchDrop";
      case NfKind::L2Fwd:
        return "L2Fwd";
      case NfKind::L2FwdDropPayload:
        return "L2FwdDropPayload";
    }
    return "?";
}

const char *
tenantPartitionName(TenantPartition p)
{
    switch (p) {
      case TenantPartition::None:
        return "shared";
      case TenantPartition::Static:
        return "static";
      case TenantPartition::Ioca:
        return "ioca";
    }
    return "?";
}

std::string
ExperimentConfig::summary() const
{
    const char *trafficName = "external";
    switch (traffic) {
      case TrafficKind::Steady:
        trafficName = "steady";
        break;
      case TrafficKind::Bursty:
        trafficName = "bursty";
        break;
      case TrafficKind::Poisson:
        trafficName = "poisson";
        break;
      case TrafficKind::None:
        break;
    }
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%ux %s, policy=%s, ring=%u, pkt=%uB, %s @ %.0f Gbps%s",
                  numNfs, nfKindName(nfKind),
                  idio::policyName(idio.policy), nic.ringSize,
                  frameBytes, trafficName, rateGbps,
                  withAntagonist ? ", +LLCAntagonist" : "");
    std::string out = buf;
    if (multiQueue()) {
        std::snprintf(buf, sizeof(buf), ", rxq=%u, flows=%llu",
                      rxQueues,
                      static_cast<unsigned long long>(
                          totalFlows
                              ? totalFlows
                              : std::uint64_t(flowsPerNf) * numNfs));
        out += buf;
    }
    if (tenantMode()) {
        std::snprintf(buf, sizeof(buf), ", tenants=%zu(%s)",
                      tenants.size(),
                      tenantPartitionName(tenantPartition));
        out += buf;
    }
    if (links.split()) {
        std::snprintf(buf, sizeof(buf),
                      ", links pcie=%gns mesh=%gns, executor j%u",
                      links.pcieNs, links.meshNs,
                      sharded ? shardJobs : 1u);
        out += buf;
    }
    return out;
}

std::string
ExperimentConfig::runEcho() const
{
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "scheduler %s, IDIO_TRACE=%s, IDIO_CHECK_INVARIANTS=%s, seed %llu",
        sim::EventQueue::backendName(sim::EventQueue::defaultBackend()),
        IDIO_TRACE ? "ON" : "OFF",
        sim::InvariantChecker::compiledIn ? "ON" : "OFF",
        static_cast<unsigned long long>(seed));
    return buf;
}

} // namespace harness
