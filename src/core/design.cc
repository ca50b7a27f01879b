#include "core/design.hh"

#include <algorithm>
#include <cmath>

#include "support/error.hh"

namespace ttmcas {

SquareMm
Die::areaAt(const ProcessNode& node) const
{
    TTMCAS_REQUIRE(node.name == process,
                   "die '" + name + "' targets " + process +
                       " but was asked for area at " + node.name);
    const SquareMm base =
        area_override.has_value()
            ? *area_override
            : SquareMm(total_transistors /
                       (node.density_mtr_per_mm2 * 1e6));
    return std::max(base, min_area);
}

void
Die::validate() const
{
    const std::vector<std::string> problems = violations();
    TTMCAS_REQUIRE(problems.empty(), problems.front());
}

std::vector<std::string>
Die::violations() const
{
    // Every check runs, but a message is built only for a failed one:
    // this runs on every model evaluation, where all of them pass.
    std::vector<std::string> problems;
    const auto check = [&](bool ok, const char* what) {
        if (!ok)
            problems.push_back("die '" + name + "': " + what);
    };
    if (name.empty())
        problems.push_back("die needs a name");
    if (process.empty())
        problems.push_back("die '" + name + "' needs a process node");
    check(total_transistors > 0.0, "total transistors must be positive");
    check(unique_transistors >= 0.0, "unique transistors must be >= 0");
    check(unique_transistors <= total_transistors,
          "unique transistors cannot exceed total transistors");
    check(count_per_package > 0.0, "count per package must be positive");
    if (area_override.has_value())
        check(area_override->value() > 0.0, "area override must be positive");
    check(min_area.value() >= 0.0, "minimum area must be >= 0");
    if (yield_override.has_value()) {
        check(*yield_override > 0.0 && *yield_override <= 1.0,
              "yield override must be in (0, 1]");
    }
    check(std::isfinite(total_transistors) &&
              std::isfinite(unique_transistors) &&
              std::isfinite(count_per_package) &&
              std::isfinite(min_area.value()) &&
              (!area_override.has_value() ||
               std::isfinite(area_override->value())),
          "parameters must be finite");
    return problems;
}

double
ChipDesign::diesPerPackage() const
{
    double total = 0.0;
    for (const auto& die : dies)
        total += die.count_per_package;
    return total;
}

double
ChipDesign::totalTransistorsPerChip() const
{
    double total = 0.0;
    for (const auto& die : dies)
        total += die.count_per_package * die.total_transistors;
    return total;
}

std::vector<std::string>
ChipDesign::processNodes() const
{
    std::vector<std::string> nodes;
    for (const auto& die : dies) {
        if (std::find(nodes.begin(), nodes.end(), die.process) ==
            nodes.end()) {
            nodes.push_back(die.process);
        }
    }
    return nodes;
}

double
ChipDesign::uniqueTransistorsAt(const std::string& process) const
{
    double total = 0.0;
    for (const auto& die : dies) {
        if (die.process == process)
            total += die.unique_transistors;
    }
    return total;
}

void
ChipDesign::validate() const
{
    const std::vector<std::string> problems = violations();
    TTMCAS_REQUIRE(problems.empty(), problems.front());
}

void
ChipDesign::validateAgainst(const TechnologyDb& db) const
{
    const std::vector<std::string> problems = violationsAgainst(db);
    TTMCAS_REQUIRE(problems.empty(), problems.front());
}

std::vector<std::string>
ChipDesign::violations() const
{
    // As in Die::violations: messages only for failed checks.
    std::vector<std::string> problems;
    const auto check = [&](bool ok, const char* what) {
        if (!ok)
            problems.push_back("chip design '" + name + "': " + what);
    };
    if (name.empty())
        problems.push_back("chip design needs a name");
    if (dies.empty()) {
        problems.push_back("chip design '" + name +
                           "' needs at least one die");
    }
    check(design_time.value() >= 0.0, "design time must be >= 0");
    check(std::isfinite(design_time.value()), "design time must be finite");
    for (const auto& die : dies) {
        for (std::string& problem : die.violations())
            problems.push_back(std::move(problem));
    }
    return problems;
}

std::vector<std::string>
ChipDesign::violationsAgainst(const TechnologyDb& db) const
{
    std::vector<std::string> problems = violations();
    for (const auto& die : dies) {
        const ProcessNode* node = db.tryNode(die.process);
        if (node == nullptr) {
            problems.push_back("design '" + name + "': die '" + die.name +
                               "' targets unknown process '" + die.process +
                               "'");
            continue;
        }
        if (!(die.areaAt(*node).value() > 0.0)) {
            problems.push_back("design '" + name + "': die '" + die.name +
                               "' has non-positive area");
        }
    }
    return problems;
}

ChipDesign
makeMonolithicDesign(const std::string& name, const std::string& process,
                     double total_transistors, double unique_transistors,
                     Weeks design_time)
{
    ChipDesign design;
    design.name = name;
    design.design_time = design_time;
    Die die;
    die.name = name + "-die";
    die.process = process;
    die.total_transistors = total_transistors;
    die.unique_transistors = unique_transistors;
    die.count_per_package = 1.0;
    design.dies.push_back(std::move(die));
    design.validate();
    return design;
}

ChipDesign
retargetDesign(const ChipDesign& design, const std::string& process)
{
    ChipDesign retargeted = design;
    for (auto& die : retargeted.dies) {
        die.process = process;
        die.area_override.reset();
    }
    return retargeted;
}

} // namespace ttmcas
