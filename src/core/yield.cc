#include "core/yield.hh"

#include <cmath>
#include <sstream>

#include "support/error.hh"
#include "support/outcome.hh"

namespace ttmcas {

namespace {

void
checkArgs(SquareMm area, double defect_density)
{
    TTMCAS_REQUIRE(area.value() > 0.0, "die area must be positive");
    TTMCAS_REQUIRE(defect_density >= 0.0, "defect density must be >= 0");
}

/** Boundary guard: every yield model output must be finite. */
double
guardYield(double yield, const char* model)
{
    return finiteOr(yield, DiagCode::NonFiniteYield,
                    [&] { return std::string(model) + " yield"; });
}

} // namespace

NegativeBinomialYield::NegativeBinomialYield(double alpha) : _alpha(alpha)
{
    TTMCAS_REQUIRE(alpha > 0.0, "cluster parameter alpha must be positive");
}

double
NegativeBinomialYield::dieYield(SquareMm area, double defect_density) const
{
    checkArgs(area, defect_density);
    const double defects = area.value() * defect_density;
    return guardYield(std::pow(1.0 + defects / _alpha, -_alpha),
                      "negative-binomial");
}

std::string
NegativeBinomialYield::name() const
{
    std::ostringstream os;
    os << "negative-binomial(alpha=" << _alpha << ")";
    return os.str();
}

double
PoissonYield::dieYield(SquareMm area, double defect_density) const
{
    checkArgs(area, defect_density);
    return guardYield(std::exp(-area.value() * defect_density), "poisson");
}

double
MurphyYield::dieYield(SquareMm area, double defect_density) const
{
    checkArgs(area, defect_density);
    const double defects = area.value() * defect_density;
    if (defects == 0.0)
        return 1.0;
    const double factor = (1.0 - std::exp(-defects)) / defects;
    return guardYield(factor * factor, "murphy");
}

double
SeedsYield::dieYield(SquareMm area, double defect_density) const
{
    checkArgs(area, defect_density);
    return guardYield(1.0 / (1.0 + area.value() * defect_density), "seeds");
}

std::shared_ptr<const YieldModel>
defaultYieldModel()
{
    static const auto model = std::make_shared<NegativeBinomialYield>(3.0);
    return model;
}

} // namespace ttmcas
