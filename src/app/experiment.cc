#include "app/experiment.hh"

#include "util/logging.hh"

namespace sonic::app
{

const char *
profileName(ProfileVariant variant)
{
    switch (variant) {
      case ProfileVariant::Standard: return "standard";
      case ProfileVariant::NoLea: return "no-lea";
      case ProfileVariant::NoDma: return "no-dma";
    }
    return "?";
}

bool
profileFromName(const std::string &name, ProfileVariant *out)
{
    for (const ProfileVariant variant : kAllProfiles) {
        if (name == profileName(variant)) {
            *out = variant;
            return true;
        }
    }
    return false;
}

arch::EnergyProfile
makeProfile(ProfileVariant variant)
{
    switch (variant) {
      case ProfileVariant::Standard:
        return arch::EnergyProfile::msp430fr5994();
      case ProfileVariant::NoLea:
        return arch::EnergyProfile::msp430fr5994NoLea();
      case ProfileVariant::NoDma:
        return arch::EnergyProfile::msp430fr5994NoDma();
    }
    panic("bad ProfileVariant");
}

} // namespace sonic::app
