#include "sim/snapshot.h"

#include <stdexcept>

#include "common/archive.h"
#include "common/frame.h"
#include "common/fsio.h"

namespace mflush::snapshot {
namespace {

// SimConfig is written field-wise (not memcpy'd) so struct padding never
// leaks into the stream and the config echo compares byte-exactly.
void put_config(ArchiveWriter& ar, const SimConfig& cfg) {
  ar.put(cfg.num_cores);
  const CoreConfig& c = cfg.core;
  ar.put(c.threads_per_core);
  ar.put(c.fetch_width);
  ar.put(c.fetch_threads);
  ar.put(c.decode_width);
  ar.put(c.rename_width);
  ar.put(c.issue_width);
  ar.put(c.commit_width);
  ar.put(c.fetch_stages);
  ar.put(c.decode_stages);
  ar.put(c.rename_stages);
  ar.put(c.int_queue_entries);
  ar.put(c.fp_queue_entries);
  ar.put(c.mem_queue_entries);
  ar.put(c.int_units);
  ar.put(c.fp_units);
  ar.put(c.ldst_units);
  ar.put(c.int_phys_regs);
  ar.put(c.fp_phys_regs);
  ar.put(c.rob_entries);
  ar.put(c.ras_entries);
  ar.put(c.lat_int_alu);
  ar.put(c.lat_int_mul);
  ar.put(c.lat_fp_alu);
  ar.put(c.lat_fp_mul);
  ar.put(c.lat_branch);
  ar.put(c.perceptron_table);
  ar.put(c.local_history_entries);
  ar.put(c.history_bits);
  ar.put(c.btb_entries);
  ar.put(c.btb_ways);
  ar.put(c.model_wrong_path);
  const MemConfig& m = cfg.mem;
  ar.put(m.line_bytes);
  ar.put(m.l1i_bytes);
  ar.put(m.l1i_ways);
  ar.put(m.l1i_banks);
  ar.put(m.l1d_bytes);
  ar.put(m.l1d_ways);
  ar.put(m.l1d_banks);
  ar.put(m.l1_latency);
  ar.put(m.itlb_entries);
  ar.put(m.dtlb_entries);
  ar.put(m.tlb_miss_penalty);
  ar.put(m.page_bytes);
  ar.put(m.l2_bytes);
  ar.put(m.l2_ways);
  ar.put(m.l2_banks);
  ar.put(m.l2_bank_latency);
  ar.put(m.bus_latency);
  ar.put(m.memory_latency);
  ar.put(m.mshr_entries);
  ar.put(static_cast<std::uint8_t>(m.memory_model));
  ar.put(m.dram.channels);
  ar.put(m.dram.banks_per_channel);
  ar.put(m.dram.row_bytes);
  ar.put(m.dram.t_row_hit);
  ar.put(m.dram.t_row_miss);
  ar.put(m.dram.t_row_conflict);
  ar.put(m.dram.channel_gap);
  ar.put(m.dram.far_base);
  ar.put(m.dram.far_bytes);
  ar.put(m.dram.far_extra);
  ar.put(cfg.seed);
  ar.put(cfg.prewarm_l2);
}

SimConfig get_config(ArchiveReader& ar) {
  SimConfig cfg;
  cfg.num_cores = ar.get<std::uint32_t>();
  CoreConfig& c = cfg.core;
  c.threads_per_core = ar.get<std::uint32_t>();
  c.fetch_width = ar.get<std::uint32_t>();
  c.fetch_threads = ar.get<std::uint32_t>();
  c.decode_width = ar.get<std::uint32_t>();
  c.rename_width = ar.get<std::uint32_t>();
  c.issue_width = ar.get<std::uint32_t>();
  c.commit_width = ar.get<std::uint32_t>();
  c.fetch_stages = ar.get<std::uint32_t>();
  c.decode_stages = ar.get<std::uint32_t>();
  c.rename_stages = ar.get<std::uint32_t>();
  c.int_queue_entries = ar.get<std::uint32_t>();
  c.fp_queue_entries = ar.get<std::uint32_t>();
  c.mem_queue_entries = ar.get<std::uint32_t>();
  c.int_units = ar.get<std::uint32_t>();
  c.fp_units = ar.get<std::uint32_t>();
  c.ldst_units = ar.get<std::uint32_t>();
  c.int_phys_regs = ar.get<std::uint32_t>();
  c.fp_phys_regs = ar.get<std::uint32_t>();
  c.rob_entries = ar.get<std::uint32_t>();
  c.ras_entries = ar.get<std::uint32_t>();
  c.lat_int_alu = ar.get<std::uint32_t>();
  c.lat_int_mul = ar.get<std::uint32_t>();
  c.lat_fp_alu = ar.get<std::uint32_t>();
  c.lat_fp_mul = ar.get<std::uint32_t>();
  c.lat_branch = ar.get<std::uint32_t>();
  c.perceptron_table = ar.get<std::uint32_t>();
  c.local_history_entries = ar.get<std::uint32_t>();
  c.history_bits = ar.get<std::uint32_t>();
  c.btb_entries = ar.get<std::uint32_t>();
  c.btb_ways = ar.get<std::uint32_t>();
  c.model_wrong_path = ar.get<bool>();
  MemConfig& m = cfg.mem;
  m.line_bytes = ar.get<std::uint32_t>();
  m.l1i_bytes = ar.get<std::uint32_t>();
  m.l1i_ways = ar.get<std::uint32_t>();
  m.l1i_banks = ar.get<std::uint32_t>();
  m.l1d_bytes = ar.get<std::uint32_t>();
  m.l1d_ways = ar.get<std::uint32_t>();
  m.l1d_banks = ar.get<std::uint32_t>();
  m.l1_latency = ar.get<std::uint32_t>();
  m.itlb_entries = ar.get<std::uint32_t>();
  m.dtlb_entries = ar.get<std::uint32_t>();
  m.tlb_miss_penalty = ar.get<std::uint32_t>();
  m.page_bytes = ar.get<std::uint32_t>();
  m.l2_bytes = ar.get<std::uint32_t>();
  m.l2_ways = ar.get<std::uint32_t>();
  m.l2_banks = ar.get<std::uint32_t>();
  m.l2_bank_latency = ar.get<std::uint32_t>();
  m.bus_latency = ar.get<std::uint32_t>();
  m.memory_latency = ar.get<std::uint32_t>();
  m.mshr_entries = ar.get<std::uint32_t>();
  m.memory_model = static_cast<MemModelKind>(ar.get<std::uint8_t>());
  m.dram.channels = ar.get<std::uint32_t>();
  m.dram.banks_per_channel = ar.get<std::uint32_t>();
  m.dram.row_bytes = ar.get<std::uint32_t>();
  m.dram.t_row_hit = ar.get<std::uint32_t>();
  m.dram.t_row_miss = ar.get<std::uint32_t>();
  m.dram.t_row_conflict = ar.get<std::uint32_t>();
  m.dram.channel_gap = ar.get<std::uint32_t>();
  m.dram.far_base = ar.get<Addr>();
  m.dram.far_bytes = ar.get<std::uint64_t>();
  m.dram.far_extra = ar.get<std::uint32_t>();
  cfg.seed = ar.get<std::uint64_t>();
  cfg.prewarm_l2 = ar.get<bool>();
  return cfg;
}

void put_policy(ArchiveWriter& ar, const PolicySpec& p) {
  ar.put(static_cast<std::uint8_t>(p.kind));
  ar.put(p.trigger);
  ar.put(p.mcreg_history);
  ar.put(static_cast<std::uint8_t>(p.mcreg_agg));
  ar.put(p.preventive);
}

PolicySpec get_policy(ArchiveReader& ar) {
  PolicySpec p;
  p.kind = static_cast<PolicySpec::Kind>(ar.get<std::uint8_t>());
  p.trigger = ar.get<Cycle>();
  p.mcreg_history = ar.get<std::uint32_t>();
  p.mcreg_agg = static_cast<PolicySpec::McRegAgg>(ar.get<std::uint8_t>());
  p.preventive = ar.get<bool>();
  return p;
}

void put_header(ArchiveWriter& ar, const CmpSimulator& sim) {
  put_config(ar, sim.config());
  ar.put_string(sim.workload().name);
  ar.put_vec(sim.workload().codes);
  put_policy(ar, sim.policy());
}

struct Header {
  SimConfig cfg;
  Workload workload;
  PolicySpec policy;
};

Header get_header(ArchiveReader& ar) {
  Header h;
  h.cfg = get_config(ar);
  h.workload.name = ar.get_string();
  ar.get_vec(h.workload.codes);
  h.policy = get_policy(ar);
  return h;
}

}  // namespace

std::vector<std::uint8_t> capture(const CmpSimulator& sim) {
  if (sim.profile_built()) {
    // Ad-hoc BenchmarkProfile chips record catalog-code placeholders in
    // their workload; make() would silently rebuild different benchmarks.
    throw std::runtime_error(
        "cannot snapshot a simulator built from ad-hoc benchmark profiles");
  }
  ArchiveWriter ar;
  const std::size_t start = frame::begin(ar, frame::kSnapshot);
  put_header(ar, sim);
  sim.save_state(ar);
  frame::seal(ar, start);
  return ar.take();
}

void restore(CmpSimulator& sim, std::span<const std::uint8_t> bytes) {
  if (sim.profile_built()) {
    throw std::runtime_error(
        "cannot restore into a simulator built from ad-hoc benchmark "
        "profiles (its workload codes are placeholders)");
  }
  ArchiveReader ar = frame::open(bytes, frame::kSnapshot);
  const Header h = get_header(ar);

  // The target simulator must be the identical experiment: compare the
  // config echoes byte-for-byte, and workload/policy structurally.
  ArchiveWriter theirs, ours;
  put_config(theirs, h.cfg);
  put_config(ours, sim.config());
  if (theirs.bytes() != ours.bytes())
    throw std::runtime_error("snapshot config does not match simulator");
  if (h.workload.name != sim.workload().name ||
      h.workload.codes != sim.workload().codes)
    throw std::runtime_error("snapshot workload does not match simulator");
  if (h.policy != sim.policy())
    throw std::runtime_error("snapshot policy does not match simulator");

  sim.load_state(ar);
  frame::finish(ar, frame::kSnapshot);
}

std::unique_ptr<CmpSimulator> make(std::span<const std::uint8_t> bytes) {
  ArchiveReader ar = frame::open(bytes, frame::kSnapshot);
  const Header h = get_header(ar);
  auto sim = std::make_unique<CmpSimulator>(h.cfg, h.workload, h.policy);
  sim->load_state(ar);
  frame::finish(ar, frame::kSnapshot);
  return sim;
}

void save_file(const std::string& path, const CmpSimulator& sim) {
  // Atomic + durable: a snapshot is a long warm-up's savings, and a crash
  // mid-write must leave either the old file or the new one — never a
  // truncated archive the next run dies on.
  fsio::write_file_atomic(path, capture(sim), /*durable=*/true);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  return fsio::read_file_bytes(path, "snapshot file");
}

std::unique_ptr<CmpSimulator> load_file(const std::string& path) {
  return make(read_file(path));
}

}  // namespace mflush::snapshot
