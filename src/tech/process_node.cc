#include "tech/process_node.hh"

#include <cmath>

#include "support/error.hh"

namespace ttmcas {

WafersPerWeek
ProcessNode::waferRate() const
{
    return units::kiloWafersPerMonth(wafer_rate_kwpm);
}

void
ProcessNode::validate() const
{
    const std::vector<std::string> problems = violations();
    TTMCAS_REQUIRE(problems.empty(), problems.front());
}

std::vector<std::string>
ProcessNode::violations() const
{
    // Messages are built only for failed checks (see Die::violations).
    std::vector<std::string> problems;
    const auto check = [&](bool ok, const char* what) {
        if (!ok)
            problems.push_back("node '" + name + "': " + what);
    };
    if (name.empty())
        problems.push_back("process node needs a name");
    check(feature_nm > 0.0, "feature size must be positive");
    check(density_mtr_per_mm2 > 0.0, "transistor density must be positive");
    check(defect_density_per_mm2 >= 0.0, "defect density must be >= 0");
    check(wafer_rate_kwpm >= 0.0, "wafer rate must be >= 0");
    check(foundry_latency.value() >= 0.0, "foundry latency must be >= 0");
    check(osat_latency.value() >= 0.0, "OSAT latency must be >= 0");
    check(tapeout_effort_hours_per_transistor > 0.0,
          "tapeout effort must be positive");
    check(testing_effort_weeks_per_e15 >= 0.0, "testing effort must be >= 0");
    check(packaging_effort_weeks_per_e9_mm2 >= 0.0,
          "packaging effort must be >= 0");
    check(wafer_cost.value() >= 0.0, "wafer cost must be >= 0");
    check(mask_set_cost.value() >= 0.0, "mask cost must be >= 0");
    check(tapeout_fixed_cost.value() >= 0.0,
          "fixed tapeout cost must be >= 0");
    check(std::isfinite(feature_nm) && std::isfinite(density_mtr_per_mm2) &&
              std::isfinite(defect_density_per_mm2) &&
              std::isfinite(wafer_rate_kwpm) &&
              std::isfinite(foundry_latency.value()) &&
              std::isfinite(osat_latency.value()) &&
              std::isfinite(tapeout_effort_hours_per_transistor) &&
              std::isfinite(testing_effort_weeks_per_e15) &&
              std::isfinite(packaging_effort_weeks_per_e9_mm2) &&
              std::isfinite(wafer_cost.value()) &&
              std::isfinite(mask_set_cost.value()) &&
              std::isfinite(tapeout_fixed_cost.value()),
          "parameters must be finite");
    return problems;
}

bool
finerThan(const ProcessNode& a, const ProcessNode& b)
{
    return a.feature_nm < b.feature_nm;
}

} // namespace ttmcas
