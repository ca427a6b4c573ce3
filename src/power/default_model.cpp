#include "power/power_model.hpp"

namespace ewc::power {

// golden_test's PinnedDefaultModel test prints this body when a retraining
// disagrees; regenerate it only for an intended change to the simulator,
// the training set or the trainer (docs/MODELS.md).
GpuPowerModel default_device_model() {
  common::LinearFit fit;
  fit.coefficients = {-0x1.e85431677bd44p+6, -0x1.5e2aa9e0ba0fap+7,
                      0x1.6577926683616p+8,  0x1.0bd8101318156p+9,
                      0x1.b48a041000895p+8,  0x1.135c1db39f76fp+6,
                      -0x1.09f8d24263d6cp+7, 0x1.69cf26a9a35ebp+7};
  fit.intercept = 0x1.ad1cdabc4c6fap+1;
  fit.r_squared = 0x1.fbf7fcf98bfecp-1;
  return GpuPowerModel(std::move(fit), Power::from_watts(0x1.97e7a564108c5p+7),
                       ThermalFit{0x1.c5d0275150e66p-5, 0x1.43b6b77f3c4b5p-6},
                       Power::from_watts(0x1.2p+4), gpusim::tesla_c1060());
}

}  // namespace ewc::power
