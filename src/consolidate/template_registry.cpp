#include "consolidate/template_registry.hpp"

#include <algorithm>
#include <bit>

namespace ewc::consolidate {

void TemplateRegistry::add(ConsolidationTemplate t) {
  const std::size_t index = templates_.size();
  const std::size_t words = index / 64 + 1;
  none_.resize(words);
  for (auto& [kernel, mask] : by_kernel_) mask.resize(words);
  for (const auto& kernel : t.kernels) {
    Mask& mask = by_kernel_[kernel];
    mask.resize(words);
    mask[index / 64] |= std::uint64_t{1} << (index % 64);
  }
  templates_.push_back(std::move(t));
}

void TemplateRegistry::add_homogeneous(const std::string& kernel,
                                       int max_total_blocks) {
  ConsolidationTemplate t;
  t.name = kernel + "_homogeneous";
  t.kernels = {kernel};
  t.max_total_blocks = max_total_blocks;
  add(std::move(t));
}

const TemplateRegistry::Mask& TemplateRegistry::hosting(
    std::string_view kernel) const {
  const auto it = by_kernel_.find(kernel);
  return it != by_kernel_.end() ? it->second : none_;
}

const ConsolidationTemplate* TemplateRegistry::narrowest(
    const Mask& mask) const {
  const ConsolidationTemplate* best = nullptr;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const auto& t = templates_[w * 64 + std::countr_zero(bits)];
      if (best == nullptr || t.kernels.size() < best->kernels.size()) {
        best = &t;
      }
    }
  }
  return best;
}

const ConsolidationTemplate* TemplateRegistry::find(
    const std::vector<std::string>& kernel_names) const {
  // Start from every template (the empty set is covered by all of them).
  Mask cover((templates_.size() + 63) / 64, ~std::uint64_t{0});
  if (templates_.size() % 64 != 0) {
    cover.back() = (std::uint64_t{1} << (templates_.size() % 64)) - 1;
  }
  for (const auto& k : kernel_names) {
    const Mask& h = hosting(k);
    for (std::size_t w = 0; w < cover.size(); ++w) cover[w] &= h[w];
  }
  return narrowest(cover);
}

std::vector<CandidateGroup> TemplateRegistry::partition(
    std::span<const std::string_view> kernel_names) const {
  struct Open {
    std::size_t group;  ///< index into `groups`
    Mask cover;         ///< templates covering every kernel in the group
  };
  std::vector<CandidateGroup> groups;
  std::vector<Open> open;  // the covered groups, in creation order
  Mask joint;
  for (std::size_t i = 0; i < kernel_names.size(); ++i) {
    const Mask& h = hosting(kernel_names[i]);
    bool placed = false;
    for (auto& g : open) {
      joint = g.cover;
      bool any = false;
      for (std::size_t w = 0; w < joint.size(); ++w) {
        joint[w] &= h[w];
        any = any || joint[w] != 0;
      }
      if (!any) continue;
      if (joint != g.cover) {
        g.cover.swap(joint);
        groups[g.group].tmpl = narrowest(g.cover);
      }
      groups[g.group].members.push_back(i);
      placed = true;
      break;
    }
    if (placed) continue;
    CandidateGroup g;
    g.tmpl = narrowest(h);
    g.members.push_back(i);
    if (g.tmpl != nullptr) open.push_back({groups.size(), h});
    groups.push_back(std::move(g));
  }
  return groups;
}

TemplateRegistry TemplateRegistry::paper_defaults() {
  TemplateRegistry r;
  for (const char* k : {"aes_encrypt", "bitonic_sort", "search",
                        "blackscholes", "montecarlo", "montecarlo_gmem",
                        "kmeans", "sha256", "compression"}) {
    r.add_homogeneous(k);
  }
  {
    ConsolidationTemplate t;
    t.name = "encryption_montecarlo";
    t.kernels = {"aes_encrypt", "montecarlo", "montecarlo_gmem"};
    r.add(std::move(t));
  }
  {
    ConsolidationTemplate t;
    t.name = "search_blackscholes";
    t.kernels = {"search", "blackscholes"};
    r.add(std::move(t));
  }
  return r;
}

}  // namespace ewc::consolidate
