// The twenty CNN models of the measurement study.
//
// Section III-A: four canonical models — ResNet-15 (0.59 GFLOPs),
// ResNet-32 (1.54), Shake-Shake Small (2.41), Shake-Shake Big (21.3) — plus
// sixteen custom variants generated "by varying the number of hidden layers
// and the size of each hidden layer". The builders construct full CIFAR-10
// layer stacks; base widths of the canonical models are calibrated so the
// analytically computed training GFLOPs land on the paper's published
// complexities (see tests/nn_test.cpp for the tolerance check).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "nn/model.hpp"

namespace cmdare::nn {

/// CIFAR-10 ResNet (He et al.): initial 3x3 conv, three stages of `n`
/// residual blocks at widths w / 2w / 4w over 32x32 / 16x16 / 8x8 maps,
/// global average pool, dense classifier. Standard depth = 6n + 2.
CnnModel make_resnet(const std::string& name, int blocks_per_stage,
                     int base_width);

/// CIFAR-10 Shake-Shake (Gastaldi): initial 3x3 conv to 16 maps, three
/// stages of `n` two-branch residual blocks at widths w / 2w / 4w, global
/// average pool, dense classifier. The canonical 26-layer network has
/// n = 4.
CnnModel make_shake_shake(const std::string& name, int blocks_per_stage,
                          int base_width);

/// Number of canonical models; they lead all_models().
inline constexpr std::size_t kCanonicalModelCount = 4;

/// The paper's four canonical models.
CnnModel resnet15();
CnnModel resnet32();
CnnModel shake_shake_small();
CnnModel shake_shake_big();
std::vector<CnnModel> canonical_models();

/// The sixteen custom variants (varying depth and width across both
/// families, complexities spanning ~0.2 to ~27 GFLOPs).
std::vector<CnnModel> custom_models();

/// All twenty models, canonical first. The zoo is built once per process,
/// on first use (thread-safe), and never changes afterwards, so references
/// into it stay valid and may be read from any thread.
const std::vector<CnnModel>& all_models();

/// The zoo model with this name, or nullptr if there is none.
const CnnModel* find_model(std::string_view name);

/// The zoo model with this name; throws std::invalid_argument if absent.
const CnnModel& model_by_name(std::string_view name);

}  // namespace cmdare::nn
