// Link-time call wrappers of the traced driver (perfbench_traced only).
//
// CMakeLists.txt links perfbench_traced with `--wrap=<symbol>` for each
// module boundary below.  The linker then sends every call the simulator
// makes to that symbol from another translation unit to `__wrap_<symbol>`
// here, and `__real_<symbol>` reaches the original definition.  Each
// wrapper opens a span and forwards, so the simulator runs unmodified:
// same calls, same order, same results.  Calls inside one translation
// unit (a function inlined into its caller) are not intercepted; those
// boundaries are reported as the coarser enclosing span.
//
// Virtual boundaries cannot be wrapped at link time, so the wrappers of
// Controller::set_gate / add_listener install forwarding proxies around
// the gate (DRAM-Locker) and every activation listener (disturbance
// model, tracker / swap defenses, fault injector, row retirer) while
// recording is on.
//
// The wrappers are declared as free functions taking the object pointer
// first; on the Itanium C++ ABI (x86-64, AArch64) that is how the
// non-virtual member functions they stand in for receive `this`.
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "attack/bfa.hpp"
#include "common/parallel.hpp"
#include "dram/controller.hpp"
#include "faults/faults.hpp"
#include "integrity/scrubber.hpp"
#include "integrity/weight_integrity.hpp"
#include "nn/model.hpp"
#include "resilience/resilience.hpp"
#include "rowhammer/disturbance.hpp"
#include "trace.hpp"
#include "traffic/engine.hpp"
#include "traffic/frfcfs.hpp"
#include "traffic/stream.hpp"

namespace pt = perfbench::trace;
using dl::dram::AccessGate;
using dl::dram::AccessRequest;
using dl::dram::AccessResult;
using dl::dram::ActivationListener;
using dl::dram::Controller;
using dl::dram::GateDecision;
using dl::dram::GlobalRowId;
using dl::dram::PhysAddr;

// The asm labels bind each declaration to the linker's __real_/__wrap_
// names for the mangled symbol listed in CMakeLists.txt.
#define PB_REAL(sym) __asm__("__real_" #sym)
#define PB_WRAP(sym) __asm__("__wrap_" #sym)

// ------------------------------------------------------------- proxies

namespace {

class GateProxy final : public AccessGate {
 public:
  explicit GateProxy(AccessGate* inner) : inner_(inner) {}
  GateProxy(const GateProxy&) = delete;
  GateProxy& operator=(const GateProxy&) = delete;
  GateDecision before_access(const AccessRequest& req,
                             Controller& ctrl) override {
    const pt::Scope span(pt::Kind::kGate);
    const GateDecision d = inner_->before_access(req, ctrl);
    if (d == GateDecision::kDeny) pt::count(pt::Counter::kGateDenies);
    return d;
  }

 private:
  AccessGate* inner_;
};

class ListenerProxy final : public ActivationListener {
 public:
  ListenerProxy(ActivationListener* inner, pt::Kind kind)
      : inner_(inner), kind_(kind) {}
  ListenerProxy(const ListenerProxy&) = delete;
  ListenerProxy& operator=(const ListenerProxy&) = delete;
  void on_activate(GlobalRowId physical_row, dl::Picoseconds now) override {
    const pt::Scope span(kind_);
    inner_->on_activate(physical_row, now);
  }
  void on_refresh_window(dl::Picoseconds now) override {
    inner_->on_refresh_window(now);
  }
  void on_row_refresh(GlobalRowId physical_row) override {
    inner_->on_row_refresh(physical_row);
  }

 private:
  ActivationListener* inner_;
  pt::Kind kind_;
};

pt::Kind listener_kind(ActivationListener* l) {
  if (dynamic_cast<dl::rowhammer::DisturbanceModel*>(l) != nullptr) {
    return pt::Kind::kDisturbance;
  }
  if (dynamic_cast<dl::faults::FaultInjector*>(l) != nullptr) {
    return pt::Kind::kFaults;
  }
  if (dynamic_cast<dl::resilience::RowRetirer*>(l) != nullptr) {
    return pt::Kind::kResilience;
  }
  return pt::Kind::kDefenseListener;
}

/// Proxies live until release_proxies(), which the driver calls once every
/// controller of a pass is gone.  Stacks may be built on pool threads.
struct ProxyStore {
  std::mutex mu;
  std::vector<std::unique_ptr<GateProxy>> gates;
  std::vector<std::unique_ptr<ListenerProxy>> listeners;
};

ProxyStore& proxies() {
  static ProxyStore* store = new ProxyStore;
  return *store;
}

}  // namespace

void pt::release_proxies() {
  ProxyStore& s = proxies();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.gates.clear();
  s.listeners.clear();
}

// ---------------------------------------------------------------- traffic

dl::traffic::TrafficReport real_engine_run(dl::traffic::TrafficEngine* self)
    PB_REAL(_ZN2dl7traffic13TrafficEngine3runEv);
dl::traffic::TrafficReport wrap_engine_run(dl::traffic::TrafficEngine* self)
    PB_WRAP(_ZN2dl7traffic13TrafficEngine3runEv);
dl::traffic::TrafficReport wrap_engine_run(dl::traffic::TrafficEngine* self) {
  const pt::Scope span(pt::Kind::kEngineRun);
  dl::traffic::TrafficReport report = real_engine_run(self);
  pt::fanout_engine(span.elapsed());
  return report;
}

std::optional<dl::traffic::Request> real_peek(dl::traffic::Stream* self)
    PB_REAL(_ZN2dl7traffic6Stream4peekEv);
std::optional<dl::traffic::Request> wrap_peek(dl::traffic::Stream* self)
    PB_WRAP(_ZN2dl7traffic6Stream4peekEv);
std::optional<dl::traffic::Request> wrap_peek(dl::traffic::Stream* self) {
  const pt::Scope span(pt::Kind::kStreamPeek);
  return real_peek(self);
}

bool real_try_enqueue(dl::traffic::FrFcfsScheduler* self,
                      dl::traffic::Request req)
    PB_REAL(_ZN2dl7traffic15FrFcfsScheduler11try_enqueueENS0_7RequestE);
bool wrap_try_enqueue(dl::traffic::FrFcfsScheduler* self,
                      dl::traffic::Request req)
    PB_WRAP(_ZN2dl7traffic15FrFcfsScheduler11try_enqueueENS0_7RequestE);
bool wrap_try_enqueue(dl::traffic::FrFcfsScheduler* self,
                      dl::traffic::Request req) {
  const pt::Scope span(pt::Kind::kEnqueue);
  const bool ok = real_try_enqueue(self, req);
  if (!ok) pt::count(pt::Counter::kEnqueueRejects);
  return ok;
}

std::size_t real_pick(dl::traffic::FrFcfsScheduler* self, std::size_t bank)
    PB_REAL(_ZN2dl7traffic15FrFcfsScheduler4pickEm);
std::size_t wrap_pick(dl::traffic::FrFcfsScheduler* self, std::size_t bank)
    PB_WRAP(_ZN2dl7traffic15FrFcfsScheduler4pickEm);
std::size_t wrap_pick(dl::traffic::FrFcfsScheduler* self, std::size_t bank) {
  const pt::Scope span(pt::Kind::kPick);
  return real_pick(self, bank);
}

// ------------------------------------------------------------------- dram

namespace {

AccessResult counted(const AccessResult& r) {
  if (r.granted) {
    pt::count(pt::Counter::kGranted);
    if (r.row_hit) pt::count(pt::Counter::kRowHits);
  }
  return r;
}

}  // namespace

AccessResult real_read(Controller* self, PhysAddr addr,
                       std::span<std::uint8_t> out, bool can_unlock)
    PB_REAL(_ZN2dl4dram10Controller4readEmSt4spanIhLm18446744073709551615EEb);
AccessResult wrap_read(Controller* self, PhysAddr addr,
                       std::span<std::uint8_t> out, bool can_unlock)
    PB_WRAP(_ZN2dl4dram10Controller4readEmSt4spanIhLm18446744073709551615EEb);
AccessResult wrap_read(Controller* self, PhysAddr addr,
                       std::span<std::uint8_t> out, bool can_unlock) {
  const pt::Scope span(pt::Kind::kController);
  return counted(real_read(self, addr, out, can_unlock));
}

AccessResult real_write(Controller* self, PhysAddr addr,
                        std::span<const std::uint8_t> in, bool can_unlock)
    PB_REAL(_ZN2dl4dram10Controller5writeEmSt4spanIKhLm18446744073709551615EEb);
AccessResult wrap_write(Controller* self, PhysAddr addr,
                        std::span<const std::uint8_t> in, bool can_unlock)
    PB_WRAP(_ZN2dl4dram10Controller5writeEmSt4spanIKhLm18446744073709551615EEb);
AccessResult wrap_write(Controller* self, PhysAddr addr,
                        std::span<const std::uint8_t> in, bool can_unlock) {
  const pt::Scope span(pt::Kind::kController);
  return counted(real_write(self, addr, in, can_unlock));
}

AccessResult real_hammer(Controller* self, PhysAddr addr, bool can_unlock)
    PB_REAL(_ZN2dl4dram10Controller6hammerEmb);
AccessResult wrap_hammer(Controller* self, PhysAddr addr, bool can_unlock)
    PB_WRAP(_ZN2dl4dram10Controller6hammerEmb);
AccessResult wrap_hammer(Controller* self, PhysAddr addr, bool can_unlock) {
  const pt::Scope span(pt::Kind::kController);
  return counted(real_hammer(self, addr, can_unlock));
}

void real_row_clone(Controller* self, GlobalRowId src, GlobalRowId dst,
                    bool corrupt, std::uint32_t corrupt_byte,
                    unsigned corrupt_bit)
    PB_REAL(_ZN2dl4dram10Controller9row_cloneEmmbjj);
void wrap_row_clone(Controller* self, GlobalRowId src, GlobalRowId dst,
                    bool corrupt, std::uint32_t corrupt_byte,
                    unsigned corrupt_bit)
    PB_WRAP(_ZN2dl4dram10Controller9row_cloneEmmbjj);
void wrap_row_clone(Controller* self, GlobalRowId src, GlobalRowId dst,
                    bool corrupt, std::uint32_t corrupt_byte,
                    unsigned corrupt_bit) {
  const pt::Scope span(pt::Kind::kMitigation);
  real_row_clone(self, src, dst, corrupt, corrupt_byte, corrupt_bit);
}

void real_refresh_row(Controller* self, GlobalRowId row)
    PB_REAL(_ZN2dl4dram10Controller11refresh_rowEm);
void wrap_refresh_row(Controller* self, GlobalRowId row)
    PB_WRAP(_ZN2dl4dram10Controller11refresh_rowEm);
void wrap_refresh_row(Controller* self, GlobalRowId row) {
  const pt::Scope span(pt::Kind::kMitigation);
  real_refresh_row(self, row);
}

void real_add_listener(Controller* self, ActivationListener* listener)
    PB_REAL(_ZN2dl4dram10Controller12add_listenerEPNS0_18ActivationListenerE);
void wrap_add_listener(Controller* self, ActivationListener* listener)
    PB_WRAP(_ZN2dl4dram10Controller12add_listenerEPNS0_18ActivationListenerE);
void wrap_add_listener(Controller* self, ActivationListener* listener) {
  if (!pt::enabled() || listener == nullptr) {
    real_add_listener(self, listener);
    return;
  }
  auto proxy =
      std::make_unique<ListenerProxy>(listener, listener_kind(listener));
  ActivationListener* raw = proxy.get();
  {
    ProxyStore& s = proxies();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.listeners.push_back(std::move(proxy));
  }
  real_add_listener(self, raw);
}

void real_set_gate(Controller* self, AccessGate* gate)
    PB_REAL(_ZN2dl4dram10Controller8set_gateEPNS0_10AccessGateE);
void wrap_set_gate(Controller* self, AccessGate* gate)
    PB_WRAP(_ZN2dl4dram10Controller8set_gateEPNS0_10AccessGateE);
void wrap_set_gate(Controller* self, AccessGate* gate) {
  if (!pt::enabled() || gate == nullptr) {
    real_set_gate(self, gate);
    return;
  }
  auto proxy = std::make_unique<GateProxy>(gate);
  AccessGate* raw = proxy.get();
  {
    ProxyStore& s = proxies();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.gates.push_back(std::move(proxy));
  }
  real_set_gate(self, raw);
}

// -------------------------------------------------------------- integrity

void real_scrub_on_read(dl::integrity::DramScrubber* self, PhysAddr addr,
                        std::span<const std::uint8_t> data)
    PB_REAL(_ZN2dl9integrity12DramScrubber7on_readEmSt4spanIKhLm18446744073709551615EE);
void wrap_scrub_on_read(dl::integrity::DramScrubber* self, PhysAddr addr,
                        std::span<const std::uint8_t> data)
    PB_WRAP(_ZN2dl9integrity12DramScrubber7on_readEmSt4spanIKhLm18446744073709551615EE);
void wrap_scrub_on_read(dl::integrity::DramScrubber* self, PhysAddr addr,
                        std::span<const std::uint8_t> data) {
  const pt::Scope span(pt::Kind::kScrub);
  pt::count(pt::Counter::kScrubBytes, data.size());
  real_scrub_on_read(self, addr, data);
}

void real_scrub_pass(dl::integrity::DramScrubber* self)
    PB_REAL(_ZN2dl9integrity12DramScrubber10scrub_passEv);
void wrap_scrub_pass(dl::integrity::DramScrubber* self)
    PB_WRAP(_ZN2dl9integrity12DramScrubber10scrub_passEv);
void wrap_scrub_pass(dl::integrity::DramScrubber* self) {
  const pt::Scope span(pt::Kind::kScrub);
  pt::count(pt::Counter::kScrubBytes,
            self->chunks_per_pass() * self->chunk_bytes());
  real_scrub_pass(self);
}

void real_verify_all(dl::integrity::WeightIntegrity* self)
    PB_REAL(_ZN2dl9integrity15WeightIntegrity10verify_allEv);
void wrap_verify_all(dl::integrity::WeightIntegrity* self)
    PB_WRAP(_ZN2dl9integrity15WeightIntegrity10verify_allEv);
void wrap_verify_all(dl::integrity::WeightIntegrity* self) {
  const pt::Scope span(pt::Kind::kWeightVerify);
  real_verify_all(self);
}

// ------------------------------------------------------------- nn / attack

dl::attack::BfaIteration real_bfa_step(dl::attack::ProgressiveBitSearch* self,
                                       const dl::nn::Dataset& sample,
                                       const dl::attack::FlipGate& gate)
    PB_REAL(_ZN2dl6attack20ProgressiveBitSearch4stepERKNS_2nn7DatasetERKSt8functionIFbRKNS2_10BitAddressEEE);
dl::attack::BfaIteration wrap_bfa_step(dl::attack::ProgressiveBitSearch* self,
                                       const dl::nn::Dataset& sample,
                                       const dl::attack::FlipGate& gate)
    PB_WRAP(_ZN2dl6attack20ProgressiveBitSearch4stepERKNS_2nn7DatasetERKSt8functionIFbRKNS2_10BitAddressEEE);
dl::attack::BfaIteration wrap_bfa_step(dl::attack::ProgressiveBitSearch* self,
                                       const dl::nn::Dataset& sample,
                                       const dl::attack::FlipGate& gate) {
  const pt::Scope span(pt::Kind::kBfaStep);
  return real_bfa_step(self, sample, gate);
}

dl::nn::Tensor real_forward(dl::nn::Model* self, const dl::nn::Tensor& x,
                            bool train)
    PB_REAL(_ZN2dl2nn5Model7forwardERKNS0_6TensorEb);
dl::nn::Tensor wrap_forward(dl::nn::Model* self, const dl::nn::Tensor& x,
                            bool train)
    PB_WRAP(_ZN2dl2nn5Model7forwardERKNS0_6TensorEb);
dl::nn::Tensor wrap_forward(dl::nn::Model* self, const dl::nn::Tensor& x,
                            bool train) {
  const pt::Scope span(pt::Kind::kForward);
  return real_forward(self, x, train);
}

// --------------------------------------------------------------- fan-out

void real_parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                       const dl::parallel::ChunkFn& fn)
    PB_REAL(_ZN2dl8parallel12parallel_forEmmmRKSt8functionIFvmmmEE);
void wrap_parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                       const dl::parallel::ChunkFn& fn)
    PB_WRAP(_ZN2dl8parallel12parallel_forEmmmRKSt8functionIFvmmmEE);
void wrap_parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                       const dl::parallel::ChunkFn& fn) {
  if (!pt::enabled() || dl::parallel::in_parallel_region()) {
    real_parallel_for(begin, end, grain, fn);
    return;
  }
  // Outermost region: attribute the traffic engines it runs (one per
  // channel in a serve round) to one fan-out.
  struct Region {
    Region() { pt::fanout_begin(); }
    ~Region() { pt::fanout_end(); }
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;
  } region;
  real_parallel_for(begin, end, grain, fn);
}
