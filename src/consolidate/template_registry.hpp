// Precompiled consolidation templates (paper Section IV).
//
// A template is a pre-generated CUDA kernel that can execute any mix of
// instances of a fixed set of workload kernels (renamed variables, re-indexed
// accesses, if-else dispatch of blocks). It is parameterized by instance
// counts and block partitioning, but it was compiled for a bounded combined
// grid, so a batch larger than its capacity must be split into several
// consolidated launches. The backend can only consolidate candidate sets for
// which a template exists — exactly the paper's constraint.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ewc::consolidate {

struct ConsolidationTemplate {
  std::string name;
  /// Workload kernels this template can host (a candidate set is coverable
  /// iff every kernel name is in this set).
  std::set<std::string> kernels;
  /// Combined-grid capacity the template was compiled for.
  int max_total_blocks = 240;  ///< 8 resident blocks x 30 SMs
};

/// One candidate group of a partitioned batch.
struct CandidateGroup {
  const ConsolidationTemplate* tmpl = nullptr;  ///< nullptr: run normally
  std::vector<std::size_t> members;  ///< indices into the partitioned names
};

class TemplateRegistry {
 public:
  void add(ConsolidationTemplate t);

  /// The template covering all `kernel_names`, preferring the narrowest
  /// match (fewest hosted kernels; the first added among equals); nullptr
  /// when none covers the set.
  const ConsolidationTemplate* find(
      const std::vector<std::string>& kernel_names) const;

  /// Partition a batch by template coverage (paper Section VII), given its
  /// kernel names in batch order: each launch joins the first group whose
  /// template — upgraded to the narrowest one that also covers the launch,
  /// as find() would pick — can host it; a launch no template covers forms
  /// its own "run normally" group. Each group carries the bitmask of the
  /// templates covering all its kernels, so a launch costs one AND per
  /// group instead of a find() over a copy of the group's names.
  std::vector<CandidateGroup> partition(
      std::span<const std::string_view> kernel_names) const;

  /// Register a single-workload (homogeneous) template for `kernel`.
  void add_homogeneous(const std::string& kernel, int max_total_blocks = 240);

  std::size_t size() const { return templates_.size(); }

  /// The paper's manually pre-designed template set: homogeneous templates
  /// for the five workloads plus the heterogeneous pairs evaluated in
  /// Section VIII (encryption+montecarlo, search+blackscholes).
  static TemplateRegistry paper_defaults();

 private:
  /// A set of templates: bit i stands for templates_[i].
  using Mask = std::vector<std::uint64_t>;

  /// The templates hosting `kernel` (all zero when none does).
  const Mask& hosting(std::string_view kernel) const;
  /// The narrowest template in `mask`, first index among equals.
  const ConsolidationTemplate* narrowest(const Mask& mask) const;

  std::vector<ConsolidationTemplate> templates_;
  std::map<std::string, Mask, std::less<>> by_kernel_;
  Mask none_;  ///< the empty set, sized like every mask
};

}  // namespace ewc::consolidate
