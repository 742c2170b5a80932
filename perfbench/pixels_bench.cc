// Request-to-pixels benchmark for the Tioga-2 session server.
//
// Every timed request is a whole interaction — a camera move or a drill-down
// refreshed and rendered into a framebuffer, or a §8 click-to-update edit
// repainted with RenderDeltaTo — submitted through runtime::SessionServer by
// one generator thread. See perfbench/README.md for the workloads, the metric
// names and the layer table; run it through perfbench/run.py, which builds it.
//
//   pixels_bench --workload browse|drilldown|edit_mix --seed N --seconds S
//                --trace 0|1 [--tiny] [--trace-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 1 when any output is wrong or any operation failed.

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "expr/batch.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "runtime/metrics.h"
#include "runtime/session_server.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::SessionServer;

constexpr int kWidth = 640;
constexpr int kHeight = 480;
// Sized for a 4-CPU host: three pool workers plus the generator thread.
constexpr size_t kPoolThreads = 3;
constexpr size_t kSetupReps = 3;
constexpr size_t kMaxPixelSamples = 12;
// Closed-loop edits (the edit probe) keep two in flight, so the worker that finishes one
// edit finds the next already queued. One at a time, every edit woke an idle
// worker on an idle virtual CPU, and the probe's median moved by up to 40%
// between runs; with two in flight, by about 5%.
constexpr size_t kProbeEditDepth = 2;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// CPU time of the calling thread, in milliseconds. Unlike wall time it
/// leaves out the stretches in which the host ran another guest on this
/// virtual CPU (steal), which on a shared host vary by half from run to run.
double ThreadCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

/// CPU time of the whole process (every thread), in seconds.
double ProcessCpuS() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "FATAL %s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(next().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = next() == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = next();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    std::exit(2);
  }
  return args;
}

/// One workload's shape. The three workloads differ in which layer does
/// most of the work (see README.md "Workloads").
struct Spec {
  std::string name;
  // Demo scale: LoadDemoData's 200 extra stations, 60 days of observations
  // (~13k rows) so that the fig08 wormhole frames stay near 0.2 s.
  size_t extra_stations = 200;
  size_t num_days = 60;
  // Reader sessions per fig program.
  std::vector<std::pair<std::string, size_t>> sessions;
  // Closed-loop frame clients. One on every workload: then at most one frame
  // runs at a time, and frames never compete with each other for a CPU or
  // its caches, so a frame's CPU time is its own work.
  size_t clients = 1;
  bool drill = false;             // frames rewrite the program's Restrict
  double edit_rate = 0;           // §8 edits per second during the window
  bool persistent = false;        // Environment::OpenPersistent attached
  size_t shared_entries = 4096;   // SharedMemoCache capacity (entries)
  size_t probe_edits = 5000;      // quiescent closed-loop edits after the window
  // The editor's fig04 Restrict. Showing every station rather than only
  // Louisiana's makes each edit propagate its delta through the whole
  // Stations chain: about half a millisecond of work at demo scale instead of
  // a quarter of one, which the host's scheduling noise disturbs less.
  // drilldown's Stations table is ten times larger, so Louisiana suffices.
  std::string editor_predicate = "state != \"\"";
};

std::vector<std::pair<std::string, size_t>> AllPrograms(size_t sessions_each) {
  std::vector<std::pair<std::string, size_t>> sessions;
  for (const testing::FigProgram& fig : testing::AllFigPrograms()) {
    sessions.emplace_back(fig.name, sessions_each);
  }
  return sessions;
}

std::optional<Spec> MakeSpec(const std::string& workload, bool tiny) {
  Spec spec;
  spec.name = workload;
  if (workload == "browse") {
    spec.sessions = AllPrograms(4);
  } else if (workload == "drilldown") {
    // ~2015 stations x 500 days = ~1.0M observation rows. Three quarters of
    // the sessions drill by station over Observations (fig09, fig10), one
    // quarter by state over Stations (fig04, fig07): the cheap state
    // drill-downs and the shared-tier hits stay well under half the frames,
    // so the median lies inside the restrict-bound station drill-downs
    // instead of on the boundary between the kinds.
    spec.extra_stations = 2000;
    spec.num_days = 500;
    spec.sessions = {{"fig04", 3}, {"fig07", 3}, {"fig09", 9}, {"fig10", 9}};
    spec.drill = true;
    spec.shared_entries = 256;
    spec.editor_predicate = "";
  } else if (workload == "edit_mix") {
    spec.sessions = AllPrograms(4);
    // Edits keep one pool worker about a sixth busy: an edit's handler took
    // 0.6 ms at the median on the 4-vCPU development host, so a sixth of a
    // worker is ~280/s, rounded down (README.md "Why 250 edits/s"). The rate
    // stays fixed so that a faster or slower edit path changes the figures,
    // not the offered load.
    spec.edit_rate = 250;
    spec.persistent = true;
    spec.probe_edits = 0;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    spec.extra_stations = spec.drill ? 60 : 20;
    spec.num_days = spec.drill ? 30 : 20;
    for (auto& program : spec.sessions) program.second = 1;
    if (spec.probe_edits > 0) spec.probe_edits = 40;
    if (spec.edit_rate > 0) spec.edit_rate = 40;
  }
  return spec;
}

// ---------------------------------------------------------------- statistics

/// Exact nearest-rank quantile of raw samples (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-quantile.
size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// ---------------------------------------------------------------- tracing

/// In-memory span store for the traced run (Chrome trace-event output).
class Tracer {
 public:
  struct Span {
    const char* name;  // a string literal
    Clock::time_point start;
    Clock::time_point end;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    std::thread::id thread;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t id, uint64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, id, parent, request,
                          std::this_thread::get_id()});
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    std::map<std::thread::id, int> tids;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buffer[256];
    for (const Span& span : spans_) {
      auto [it, inserted] = tids.emplace(span.thread, static_cast<int>(tids.size()) + 1);
      double ts = std::chrono::duration<double, std::micro>(span.start - origin_).count();
      double dur = std::chrono::duration<double, std::micro>(span.end - span.start).count();
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"request\":%llu}}",
                    first ? "" : ",\n", span.name, it->second, ts, dur,
                    static_cast<unsigned long long>(span.id),
                    static_cast<unsigned long long>(span.parent),
                    static_cast<unsigned long long>(span.request));
      out << buffer;
      first = false;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- world

/// One viewer a session has open, with the framebuffer it renders into.
struct ViewerSlot {
  std::string canvas;
  viewer::Viewer* viewer = nullptr;  // owned by the runtime::Session
  std::unique_ptr<render::Framebuffer> fb;
  std::vector<viewer::Camera> home;  // cameras after FitContent
};

struct SessionSlot {
  std::string id;
  ui::Session* ui = nullptr;  // owned by the runtime::Session
  std::string program;
  std::string drill_box;   // first Restrict box of the program
  std::string predicate;   // current predicate of drill_box
  std::vector<ViewerSlot> viewers;
  size_t next_view = 0;    // generator-side round-robin cursor
};

/// Everything one set-up builds: catalog, saved programs, server, sessions.
struct World {
  std::unique_ptr<Environment> env;
  std::unique_ptr<SessionServer> server;
  std::vector<SessionSlot> readers;
  SessionSlot editor;  // fig04, camera never moves; target of §8 edits
  std::vector<std::pair<double, double>> edit_targets;  // device coords
  std::vector<std::string> states;   // distinct Stations.state values
  int64_t num_stations = 0;
  std::string wal_dir;

  ~World() {
    server.reset();
    if (env != nullptr) {
      Status closed = env->ClosePersistent();
      if (!closed.ok()) {
        std::fprintf(stderr, "ClosePersistent: %s\n", closed.ToString().c_str());
      }
      env.reset();
    }
    if (!wal_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(wal_dir, ignored);
    }
  }
};

/// First Restrict box of a loaded program, and its predicate.
std::pair<std::string, std::string> FindRestrict(const dataflow::Graph& graph) {
  for (const std::string& id : graph.BoxIds()) {
    auto box = graph.GetBox(id);
    if (!box.ok() || box.value()->type_name() != "Restrict") continue;
    auto params = box.value()->Params();
    auto it = params.find("predicate");
    if (it != params.end()) return {id, it->second};
  }
  return {"", ""};
}

std::vector<std::string> CanvasesOf(const std::string& program) {
  for (const testing::FigProgram& fig : testing::AllFigPrograms()) {
    if (fig.name == program) return fig.canvases;
  }
  return {};
}

/// Opens a server session, loads `program`, rewrites its Restrict to
/// `predicate` unless that is empty, and opens a fitted viewer on each of its
/// canvases with one warm-up frame.
SessionSlot OpenSession(World* world, const std::string& program,
                        const std::string& predicate = "") {
  SessionSlot slot;
  slot.id = Take(world->server->OpenSession(), "OpenSession");
  slot.program = program;
  for (const std::string& canvas : CanvasesOf(program)) {
    ViewerSlot view;
    view.canvas = canvas;
    view.fb = std::make_unique<render::Framebuffer>(kWidth, kHeight);
    slot.viewers.push_back(std::move(view));
  }
  SessionSlot* target = &slot;
  slot.predicate = predicate;
  Status loaded =
      world->server
          ->Submit(slot.id,
                   {.handler =
                        [target](runtime::Session& s) -> Status {
                          target->ui = &s.ui();
                          TIOGA2_RETURN_IF_ERROR(s.ui().LoadProgram(target->program));
                          auto [drill_box, saved] = FindRestrict(s.ui().graph());
                          target->drill_box = drill_box;
                          if (target->predicate.empty()) {
                            target->predicate = saved;
                          } else {
                            TIOGA2_RETURN_IF_ERROR(s.ui().ReplaceBox(
                                drill_box, "Restrict", {{"predicate", target->predicate}}));
                          }
                          for (ViewerSlot& view : target->viewers) {
                            TIOGA2_ASSIGN_OR_RETURN(view.viewer, s.GetViewer(view.canvas));
                            TIOGA2_RETURN_IF_ERROR(view.viewer->FitContent(kWidth, kHeight));
                            for (size_t m = 0; m < view.viewer->num_members(); ++m) {
                              view.home.push_back(view.viewer->camera_of(m));
                            }
                            render::RasterSurface surface(view.fb.get());
                            surface.Clear(draw::kWhite);
                            TIOGA2_RETURN_IF_ERROR(view.viewer->RenderTo(&surface).status());
                          }
                          return Status::OK();
                        },
                    .tag = "load"})
          .get();
  Check(loaded, "loading " + program + " into " + slot.id);
  return slot;
}

/// Attaches Environment::OpenPersistent in a fresh directory, with the
/// default kFlushEveryN WAL and a background snapshot every 2000 records.
void AttachStorage(World* world, const std::string& dir) {
  world->wal_dir = dir;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  storage::StorageOptions options;
  options.dir = dir;
  options.wal.durability = storage::Durability::kFlushEveryN;
  options.snapshot_every_records = 2000;
  Check(world->env->OpenPersistent(options), "OpenPersistent");
}

std::unique_ptr<World> Setup(const Spec& spec, uint64_t seed, const std::string& out_dir,
                             size_t rep) {
  auto world = std::make_unique<World>();
  world->env = std::make_unique<Environment>();
  Environment* env = world->env.get();
  Check(env->LoadDemoData(spec.extra_stations, spec.num_days, seed), "LoadDemoData");

  // Build each figure program once and save it into the catalog; server
  // sessions load their copy (a library of saved programs over one database).
  for (const testing::FigProgram& fig : testing::AllFigPrograms()) {
    bool used = fig.name == "fig04" ||  // the editor's program
                std::any_of(spec.sessions.begin(), spec.sessions.end(),
                            [&](const auto& program) { return program.first == fig.name; });
    if (!used) continue;
    env->session().NewProgram();
    Check(fig.build(env), "building " + fig.name);
    Check(env->session().SaveProgram(fig.name), "saving " + fig.name);
  }
  env->session().NewProgram();

  if (spec.persistent) {
    AttachStorage(world.get(), out_dir + "/wal-" + std::to_string(getpid()) + "-" +
                                   std::to_string(rep));
  }

  db::RelationPtr stations = Take(env->catalog().GetTable("Stations"), "Stations");
  world->num_stations = static_cast<int64_t>(stations->num_rows());
  size_t state_col = Take(stations->schema()->ColumnIndex("state"), "state column");
  for (size_t row = 0; row < stations->num_rows(); ++row) {
    std::string state = stations->at(row, state_col).string_value();
    if (std::find(world->states.begin(), world->states.end(), state) == world->states.end()) {
      world->states.push_back(state);
    }
  }
  std::sort(world->states.begin(), world->states.end());

  SessionServer::Options options;
  options.num_threads = kPoolThreads;
  options.queue_bound = 64;
  options.shared_cache_entries = spec.shared_entries;
  world->server = env->CreateServer(options);

  for (size_t round = 0, opened = 1; opened > 0; ++round) {
    opened = 0;
    for (const auto& [program, count] : spec.sessions) {
      if (round >= count) continue;
      world->readers.push_back(OpenSession(world.get(), program));
      ++opened;
    }
  }
  world->editor = OpenSession(world.get(), "fig04", spec.editor_predicate);

  // Edit targets: every station dot on the editor's canvas, in device
  // coordinates (the editor's camera never moves, and edits change only
  // altitude, so the dots stay put).
  const ViewerSlot& ev = world->editor.viewers.front();
  const display::Group& content = ev.viewer->content();
  for (const display::CompositeEntry& entry : content.members().front().entries()) {
    for (size_t row = 0; row < entry.relation.num_rows(); ++row) {
      auto location = entry.relation.LocationOf(row);
      if (!location.ok()) continue;
      double dx = 0, dy = 0;
      ev.viewer->camera_of(0).WorldToDevice((*location)[0] + entry.OffsetAt(0),
                                            (*location)[1] + entry.OffsetAt(1), &dx, &dy);
      if (dx >= 1 && dy >= 1 && dx < kWidth - 1 && dy < kHeight - 1) {
        world->edit_targets.emplace_back(dx, dy);
      }
    }
  }
  if (world->edit_targets.empty()) {
    Fatal("setup", Status::Internal("editor canvas shows no station"));
  }
  return world;
}

// ---------------------------------------------------------------- requests

/// One submitted interaction. The generator fills the inputs and `submit`;
/// the handler fills the timestamps and results, then hands the op back
/// through the completion queue.
struct Op {
  enum class Kind { kFrame, kEdit };
  Kind kind = Kind::kFrame;
  size_t client = 0;  // frames: the closed-loop client that sent it
  SessionSlot* session = nullptr;
  ViewerSlot* view = nullptr;
  // Frame inputs.
  bool zoom = false;
  size_t member = 0;
  double u1 = 0, u2 = 0;
  std::string predicate;  // drill-down: the new Restrict predicate
  bool sample = false;    // capture pixels for the output check
  // Edit inputs.
  std::pair<double, double> target;
  std::string altitude;
  // Tracing.
  bool traced = false;
  uint64_t request_id = 0;
  // Timestamps.
  Clock::time_point due, submit, start, eval0, eval1, render0, render1, click0, click1,
      end;
  double cpu_ms = 0;  // handler thread CPU time, handler start to end
  viewer::RenderStats stats;
  // Output check capture.
  std::string ppm;
  std::vector<viewer::Camera> cameras;
  std::string shown_predicate;
  std::atomic<bool> handler_ran{false};
  std::future<Status> future;
};

/// Ops whose handler has finished, handed back to the generator thread.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Op*> done;

  void Push(Op* op) {
    {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(op);
    }
    cv.notify_one();
  }
};

struct Context {
  World* world = nullptr;
  const Spec* spec = nullptr;
  Tracer* tracer = nullptr;
  Completions completions;
};

void RecordSpan(Context* ctx, const Op& op, const char* name, Clock::time_point a,
                Clock::time_point b, uint64_t parent) {
  ctx->tracer->Record(name, a, b, ctx->tracer->NewId(), parent, op.request_id);
}

/// Pans or zooms the chosen member's camera to a seeded target drawn afresh
/// around the fitted home camera each time (zoom x0.55..x1.8, pan within a
/// quarter view), rather than as a random walk: the camera states are
/// independent draws, so the per-frame render cost is stationary and a run's
/// mix does not depend on where an earlier walk wandered.
void MoveCamera(ViewerSlot* view, const Op& op) {
  viewer::Viewer* v = view->viewer;
  size_t member = op.member % v->num_members();
  if (!v->SetActiveMember(member).ok()) return;
  const viewer::Camera& home = view->home[std::min(member, view->home.size() - 1)];
  const viewer::Camera& cam = v->camera();
  if (op.zoom) {
    double target = home.elevation() * std::exp((op.u1 - 0.5) * 1.2);
    v->Zoom(cam.elevation() / target);
  } else {
    double x = home.center_x() + (op.u1 - 0.5) * 0.5 * home.elevation() * kWidth / kHeight;
    double y = home.center_y() + (op.u2 - 0.5) * 0.5 * home.elevation();
    v->Pan(x - cam.center_x(), y - cam.center_y());
  }
}

std::vector<viewer::Camera> CamerasOf(const viewer::Viewer& v) {
  std::vector<viewer::Camera> cameras;
  for (size_t m = 0; m < v.num_members(); ++m) cameras.push_back(v.camera_of(m));
  return cameras;
}

/// Frame interaction: camera move (or Restrict rewrite), Refresh, RenderTo.
Status FrameHandler(Context* ctx, Op* op, runtime::Session& s) {
  op->start = Clock::now();
  double cpu0 = ThreadCpuMs();
  op->handler_ran.store(true, std::memory_order_relaxed);
  uint64_t handler_id = op->traced ? ctx->tracer->NewId() : 0;
  ViewerSlot* view = op->view;
  Status status = Status::OK();
  if (!op->predicate.empty()) {
    op->eval0 = Clock::now();
    status = s.ui().ReplaceBox(op->session->drill_box, "Restrict",
                               {{"predicate", op->predicate}});
    if (status.ok()) op->session->predicate = op->predicate;
    if (op->traced) RecordSpan(ctx, *op, "ui.ReplaceBox", op->eval0, Clock::now(), handler_id);
  } else {
    MoveCamera(view, *op);
    op->eval0 = Clock::now();
  }
  Clock::time_point refresh0 = Clock::now();
  if (status.ok()) status = view->viewer->Refresh();
  op->eval1 = Clock::now();
  if (op->traced) RecordSpan(ctx, *op, "viewer.Refresh", refresh0, op->eval1, handler_id);
  op->render0 = op->render1 = op->eval1;
  if (status.ok()) {
    render::RasterSurface surface(view->fb.get());
    surface.Clear(draw::kWhite);
    Result<viewer::RenderStats> stats = view->viewer->RenderTo(&surface);
    op->render1 = Clock::now();
    if (stats.ok()) {
      op->stats = stats.value();
    } else {
      status = stats.status();
    }
    if (op->traced) RecordSpan(ctx, *op, "viewer.RenderTo", op->render0, op->render1, handler_id);
  }
  op->end = Clock::now();
  op->cpu_ms = ThreadCpuMs() - cpu0;
  if (op->traced) {
    RecordSpan(ctx, *op, "runtime.queue", op->submit, op->start, op->request_id);
    ctx->tracer->Record("runtime.handler", op->start, op->end, handler_id, op->request_id,
                        op->request_id);
    ctx->tracer->Record("request.frame", op->submit, op->end, op->request_id, 0,
                        op->request_id);
  }
  if (status.ok() && op->sample) {
    op->ppm = view->fb->ToPpm();
    op->cameras = CamerasOf(*view->viewer);
    op->shown_predicate = op->session->predicate;
  }
  ctx->completions.Push(op);
  return status;
}

/// §8 edit: HitTestAt a station dot, ClickUpdate its altitude, RenderDeltaTo.
Status EditHandler(Context* ctx, Op* op, runtime::Session& s) {
  op->start = Clock::now();
  op->handler_ran.store(true, std::memory_order_relaxed);
  uint64_t handler_id = op->traced ? ctx->tracer->NewId() : 0;
  ViewerSlot* view = op->view;
  render::RasterSurface surface(view->fb.get());
  Status status = Status::OK();
  Result<std::optional<viewer::Hit>> hit =
      view->viewer->HitTestAt(&surface, op->target.first, op->target.second);
  op->click0 = Clock::now();
  if (op->traced) RecordSpan(ctx, *op, "viewer.HitTestAt", op->start, op->click0, handler_id);
  if (!hit.ok()) {
    status = hit.status();
  } else if (!hit.value().has_value()) {
    status = Status::NotFound("edit target hit no tuple");
  } else {
    status = s.ui().ClickUpdate(view->canvas, *hit.value(), "Stations",
                                {{"altitude", op->altitude}});
  }
  op->click1 = op->render0 = Clock::now();
  if (op->traced) RecordSpan(ctx, *op, "ui.ClickUpdate", op->click0, op->click1, handler_id);
  if (status.ok()) {
    const dataflow::ValueDelta* delta = s.ui().LastCanvasDelta(view->canvas);
    Result<viewer::RenderStats> stats = Status::Internal("no repaint ran");
    if (delta != nullptr) {
      stats = view->viewer->RenderDeltaTo(&surface, *delta);
    } else {
      // The feeding box fell back to recompute: repaint in full.
      status = view->viewer->Refresh();
      surface.Clear(draw::kWhite);
      if (status.ok()) stats = view->viewer->RenderTo(&surface);
    }
    if (status.ok() && !stats.ok()) status = stats.status();
    op->render1 = Clock::now();
    if (op->traced) {
      RecordSpan(ctx, *op, "viewer.RenderDeltaTo", op->render0, op->render1, handler_id);
    }
  }
  op->end = Clock::now();
  if (op->traced) {
    RecordSpan(ctx, *op, "runtime.queue", op->submit, op->start, op->request_id);
    ctx->tracer->Record("runtime.handler", op->start, op->end, handler_id, op->request_id,
                        op->request_id);
    ctx->tracer->Record("request.edit", op->due, op->end, op->request_id, 0, op->request_id);
  }
  ctx->completions.Push(op);
  return status;
}

// ---------------------------------------------------------------- generator

/// Zipf sampler over ranks 0..n-1: P(rank i) is proportional to (i + 1)^-s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      cdf_[i] = (sum += std::pow(static_cast<double>(i + 1), -s));
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(double u) const {
    return std::min<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct FrameSample {
  double latency_ms, queue_ms, eval_ms, render_ms;
  double cpu_ms;      // handler thread CPU time
  double handler_ms;  // handler wall time, start to end
  double late_ms;  // generator lateness: submit - due
  bool traced;
  const SessionSlot* session;
  const ViewerSlot* view;
};

struct EditSample {
  double latency_ms;  // from due time (open loop) or handler start (closed loop)
  double late_ms;     // generator lateness: submit - due
  double handler_ms, click_ms, render_delta_ms;
};

struct PhaseResult {
  std::vector<FrameSample> frames;
  std::vector<EditSample> edits;
  std::vector<std::unique_ptr<Op>> samples;  // frames captured for the check
  uint64_t attempted = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t errors = 0;
  std::string first_error;
  double window_s = 0;
  size_t frames_in_window = 0;
  double last_in_window = 0;  // seconds from window start to the last such frame
  viewer::RenderStats render;
};

struct PhaseConfig {
  double seconds = 0;
  size_t clients = 0;        // closed-loop frame clients
  bool edits = false;        // send §8 edits to the editor session
  double edit_rate = 0;      // open-loop edits per second; 0 = closed loop
  size_t max_edits = 0;      // 0 = unlimited
  bool trace = false;        // alternate traced/untraced slices
  bool sample_pixels = false;
};

/// Drives one phase: `clients` closed-loop frame clients plus, optionally, a
/// stream of edits (open loop at `edit_rate`, or closed loop), all submitted
/// from this thread. Returns when the window has closed, or `max_edits` have
/// been sent, and every submitted op has completed.
PhaseResult RunPhase(Context* ctx, const PhaseConfig& config, std::mt19937_64* rng) {
  World* world = ctx->world;
  const Spec& spec = *ctx->spec;
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  // Drill-down skew, mild on purpose: with s = 0.7 few station drill-downs
  // find their (program, predicate) still in the shared tier, so the median
  // frame is a station drill-down that runs the restrict, not a cache hit.
  constexpr double kZipfExponent = 0.7;
  Zipf station_zipf(static_cast<size_t>(world->num_stations), kZipfExponent);
  Zipf state_zipf(world->states.size(), kZipfExponent);
  // A seeded rank -> state permutation, so the popular state varies by seed.
  std::vector<std::string> states = world->states;
  std::shuffle(states.begin(), states.end(), *rng);

  // Client c owns reader sessions c, c + C, c + 2C, ... (no two clients
  // contend for one session mutex) and visits them round-robin in a seeded
  // order, each visit moving the session's next viewer in turn: every run
  // renders the same mix of programs, each program weighted equally.
  std::vector<std::vector<SessionSlot*>> owned(config.clients);
  for (size_t i = 0; i < world->readers.size() && config.clients > 0; ++i) {
    owned[i % config.clients].push_back(&world->readers[i]);
  }
  for (auto& sessions : owned) std::shuffle(sessions.begin(), sessions.end(), *rng);
  std::vector<size_t> cursor(config.clients, 0);

  PhaseResult result;
  std::map<Op*, std::unique_ptr<Op>> live;
  std::vector<bool> busy(config.clients, false);
  Clock::time_point t0 = Clock::now();
  // A closed-loop request is due when the previous request of its stream
  // (its client's frames, or the edits) has finished.
  std::vector<Clock::time_point> frame_due(config.clients, t0);
  Clock::time_point edit_due = t0;
  Clock::time_point t_end = t0 + Seconds(config.seconds);
  bool closed_loop_edits = config.edit_rate <= 0;
  Clock::duration edit_interval = closed_loop_edits ? Clock::duration{}
                                                    : Seconds(1.0 / config.edit_rate);
  Clock::time_point next_edit = t0;
  size_t edits_live = 0;
  size_t edits_submitted = 0;
  size_t frames_submitted = 0;
  size_t frames_sampled = 0;
  constexpr auto kSlice = std::chrono::milliseconds(250);

  auto submit = [&](std::unique_ptr<Op> op, SessionServer::Access access) {
    Op* raw = op.get();
    raw->traced = config.trace && ((raw->submit - t0) / kSlice) % 2 == 1;
    if (raw->traced) raw->request_id = ctx->tracer->NewId();
    SessionServer::Request request;
    request.access = access;
    if (raw->kind == Op::Kind::kFrame) {
      request.handler = [ctx, raw](runtime::Session& s) { return FrameHandler(ctx, raw, s); };
      request.tag = "frame";
    } else {
      request.handler = [ctx, raw](runtime::Session& s) { return EditHandler(ctx, raw, s); };
      request.tag = "edit";
    }
    ++result.attempted;
    raw->future = world->server->Submit(raw->session->id, std::move(request));
    live.emplace(raw, std::move(op));
  };

  auto finish = [&](Op* op) {
    std::unique_ptr<Op> owned_op = std::move(live.at(op));
    live.erase(op);
    Status status = op->future.get();
    if (op->kind == Op::Kind::kFrame) {
      busy[op->client] = false;
      frame_due[op->client] = op->handler_ran ? op->end : Clock::now();
    } else {
      --edits_live;
      edit_due = op->handler_ran ? op->end : Clock::now();
    }
    if (!status.ok()) {
      if (status.IsUnavailable()) {
        ++result.rejected;
      } else if (status.IsDeadlineExceeded()) {
        ++result.timed_out;
      } else {
        ++result.errors;
        if (result.first_error.empty()) result.first_error = status.ToString();
      }
      return;
    }
    if (op->kind == Op::Kind::kFrame) {
      result.frames.push_back(FrameSample{Ms(op->end - op->submit), Ms(op->start - op->submit),
                                          Ms(op->eval1 - op->eval0),
                                          Ms(op->render1 - op->render0), op->cpu_ms,
                                          Ms(op->end - op->start), Ms(op->submit - op->due),
                                          op->traced, op->session, op->view});
      if (op->end <= t_end) {
        ++result.frames_in_window;
        result.last_in_window = std::max(result.last_in_window, Ms(op->end - t0) / 1000.0);
      }
      result.render += op->stats;
      if (op->sample) result.samples.push_back(std::move(owned_op));
    } else {
      // A closed-loop probe edit is timed from handler start: before that it
      // waits only for the other edit in flight on the editor session.
      Clock::time_point from = closed_loop_edits ? op->start : op->due;
      result.edits.push_back(EditSample{Ms(op->end - from), Ms(op->submit - op->due),
                                        Ms(op->end - op->start), Ms(op->click1 - op->click0),
                                        Ms(op->render1 - op->render0)});
    }
  };

  while (true) {
    Clock::time_point now = Clock::now();
    bool edits_open =
        config.edits && (config.max_edits == 0 || edits_submitted < config.max_edits);
    bool accepting = now < t_end && (config.clients > 0 || edits_open);
    if (accepting) {
      for (size_t c = 0; c < config.clients; ++c) {
        if (busy[c]) continue;
        auto op = std::make_unique<Op>();
        op->kind = Op::Kind::kFrame;
        op->client = c;
        op->session = owned[c][cursor[c]++ % owned[c].size()];
        op->view = &op->session->viewers[op->session->next_view++ % op->session->viewers.size()];
        op->zoom = uniform(*rng) < 0.4;
        op->member = (*rng)() % 8;
        op->u1 = uniform(*rng);
        op->u2 = uniform(*rng);
        if (spec.drill && !op->session->drill_box.empty()) {
          double u = uniform(*rng);
          if (op->session->predicate.rfind("station_id", 0) == 0) {
            op->predicate = "station_id = " + std::to_string(station_zipf.Sample(u) + 1);
          } else {
            op->predicate = "state = \"" + states[state_zipf.Sample(u)] + "\"";
          }
        }
        double draw = uniform(*rng);
        op->sample = config.sample_pixels && frames_sampled < kMaxPixelSamples &&
                     (frames_submitted == 0 || draw < 1.0 / 64);
        frames_sampled += op->sample ? 1 : 0;
        ++frames_submitted;
        busy[c] = true;
        op->submit = Clock::now();
        op->due = frame_due[c];
        submit(std::move(op), SessionServer::Access::kRead);
      }
      while (edits_open &&
             (closed_loop_edits ? edits_live < kProbeEditDepth : next_edit <= now)) {
        auto op = std::make_unique<Op>();
        op->kind = Op::Kind::kEdit;
        op->session = &world->editor;
        op->view = &world->editor.viewers.front();
        op->target = world->edit_targets[(*rng)() % world->edit_targets.size()];
        char altitude[32];
        std::snprintf(altitude, sizeof(altitude), "%.1f", uniform(*rng) * 6000.0);
        op->altitude = altitude;
        op->submit = Clock::now();
        op->due = closed_loop_edits ? edit_due : next_edit;
        submit(std::move(op), SessionServer::Access::kWrite);
        next_edit += edit_interval;
        ++edits_live;
        ++edits_submitted;
        edits_open = config.max_edits == 0 || edits_submitted < config.max_edits;
      }
    } else if (live.empty()) {
      break;
    }

    Clock::time_point wake = now + std::chrono::milliseconds(20);
    if (accepting) {
      wake = std::min(wake, t_end);
      if (edits_open && !closed_loop_edits) wake = std::min(wake, next_edit);
    }
    std::vector<Op*> done;
    {
      std::unique_lock<std::mutex> lock(ctx->completions.mu);
      ctx->completions.cv.wait_until(lock, wake,
                                     [&] { return !ctx->completions.done.empty(); });
      done.swap(ctx->completions.done);
    }
    for (Op* op : done) finish(op);
    // Ops resolved without running their handler (rejected at admission,
    // expired) never reach the completion queue.
    std::vector<Op*> unrun;
    for (auto& [raw, op] : live) {
      if (!raw->handler_ran.load(std::memory_order_relaxed) &&
          raw->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        unrun.push_back(raw);
      }
    }
    for (Op* op : unrun) finish(op);
  }
  result.window_s = std::min(config.seconds, Ms(Clock::now() - t0) / 1000.0);
  return result;
}

// ---------------------------------------------------------------- output check

/// Renders reference pixels with a fresh single-threaded ui::Session under a
/// scalar ExecPolicy and no shared tier, on the same catalog.
class Reference {
 public:
  explicit Reference(db::Catalog* catalog) : catalog_(catalog) {
    policy_.vectorized = false;
    policy_.simd = db::SimdLevel::kScalar;
  }

  Result<std::string> Render(const std::string& program, const std::string& predicate,
                             const std::string& canvas,
                             const std::vector<viewer::Camera>& cameras) {
    std::string key = program + '\x1f' + predicate;
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      auto session = std::make_unique<ui::Session>(catalog_);
      session->engine().set_exec_policy(policy_);
      TIOGA2_RETURN_IF_ERROR(session->LoadProgram(program));
      auto [drill_box, saved] = FindRestrict(session->graph());
      if (!drill_box.empty() && predicate != saved) {
        TIOGA2_RETURN_IF_ERROR(
            session->ReplaceBox(drill_box, "Restrict", {{"predicate", predicate}}));
      }
      it = sessions_.emplace(key, std::move(session)).first;
    }
    viewer::Viewer view("reference", canvas, &it->second->registry());
    TIOGA2_RETURN_IF_ERROR(view.Refresh());
    if (view.num_members() != cameras.size()) {
      return Status::Internal("reference member count differs");
    }
    for (size_t m = 0; m < cameras.size(); ++m) *view.mutable_camera_of(m) = cameras[m];
    render::Framebuffer fb(kWidth, kHeight);
    render::RasterSurface surface(&fb);
    surface.Clear(draw::kWhite);
    viewer::RenderOptions options;
    options.policy = policy_;
    TIOGA2_RETURN_IF_ERROR(view.RenderTo(&surface, options).status());
    return fb.ToPpm();
  }

 private:
  db::Catalog* catalog_;
  db::ExecPolicy policy_;
  std::map<std::string, std::unique_ptr<ui::Session>> sessions_;
};

struct PixelCheck {
  size_t compared = 0;
  size_t mismatches = 0;
  std::string first_mismatch;

  void Compare(Reference* reference, const std::string& program, const std::string& predicate,
               const std::string& canvas, const std::string& ppm,
               const std::vector<viewer::Camera>& cameras) {
    ++compared;
    Result<std::string> expected = reference->Render(program, predicate, canvas, cameras);
    if (expected.ok() && expected.value() == ppm) return;
    ++mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = program + "/" + canvas + " [" + predicate + "]" +
                       (expected.ok() ? ": pixels differ" : ": " + expected.status().ToString());
    }
  }
};

/// Captures a session's current framebuffer (after a fresh Refresh +
/// RenderTo when `rerender`) through the server, once the run is quiescent.
void CheckFinalFrame(World* world, SessionSlot* session, ViewerSlot* view, bool rerender,
                     Reference* reference, PixelCheck* check) {
  std::string ppm;
  std::vector<viewer::Camera> cameras;
  Status status = world->server
                      ->Submit(session->id,
                               {.handler =
                                    [&](runtime::Session&) -> Status {
                                      if (rerender) {
                                        TIOGA2_RETURN_IF_ERROR(view->viewer->Refresh());
                                        render::RasterSurface surface(view->fb.get());
                                        surface.Clear(draw::kWhite);
                                        TIOGA2_RETURN_IF_ERROR(
                                            view->viewer->RenderTo(&surface).status());
                                      }
                                      ppm = view->fb->ToPpm();
                                      cameras = CamerasOf(*view->viewer);
                                      return Status::OK();
                                    },
                                .tag = "check"})
                      .get();
  if (!status.ok()) {
    ++check->compared;
    ++check->mismatches;
    if (check->first_mismatch.empty()) check->first_mismatch = status.ToString();
    return;
  }
  check->Compare(reference, session->program, session->predicate, view->canvas, ppm, cameras);
}

// ---------------------------------------------------------------- calibration

/// A fixed single-thread spin, timed alone and then on kPoolThreads threads
/// at once: measured parallelism = threads x single / parallel.
struct Calibration {
  double spin_ms = 0;
  double parallelism = 0;
};

std::atomic<uint64_t> spin_sink{0};  // keeps the spin loops observable

void Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  spin_sink.fetch_add(x, std::memory_order_relaxed);
}

Calibration Calibrate(uint64_t iterations) {
  Clock::time_point a = Clock::now();
  Spin(iterations);
  double single = Ms(Clock::now() - a);
  // Twice: the first round also pays for waking idle (virtual) CPUs.
  double parallel = 0;
  for (int round = 0; round < 2; ++round) {
    a = Clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kPoolThreads; ++t) threads.emplace_back(Spin, iterations);
    for (std::thread& t : threads) t.join();
    parallel = Ms(Clock::now() - a);
  }
  return Calibration{single, static_cast<double>(kPoolThreads) * single / parallel};
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CanvasOf(const FrameSample& f) { return f.session->program + "/" + f.view->canvas; }

size_t CanvasCount(const std::vector<FrameSample>& frames) {
  std::set<std::string> canvases;
  for (const FrameSample& f : frames) canvases.insert(CanvasOf(f));
  return canvases.size();
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Geometric mean over the canvases of `stat` (a mean or a quantile) of each
/// canvas's frame CPU times, over the traced or the untraced frames. Every
/// canvas weighs the same, and each statistic is taken among the frames of
/// one canvas. A statistic of all frames together would lie where a cheap
/// canvas's frames end and a dear one's begin, and jump between them from
/// run to run.
template <typename Stat>
double PerCanvasCpu(const std::vector<FrameSample>& frames, bool traced, Stat stat) {
  std::map<std::string, std::vector<double>> by_canvas;
  for (const FrameSample& f : frames) {
    if (f.traced == traced) by_canvas[CanvasOf(f)].push_back(f.cpu_ms);
  }
  if (by_canvas.empty()) return 0;
  double log_sum = 0;
  for (const auto& [canvas, ms] : by_canvas) log_sum += std::log(std::max(stat(ms), 1e-6));
  return std::exp(log_sum / static_cast<double>(by_canvas.size()));
}

double CanvasCpuMean(const std::vector<FrameSample>& frames, bool traced) {
  return PerCanvasCpu(frames, traced, Mean);
}

double CanvasCpuQuantile(const std::vector<FrameSample>& frames, double q, bool traced) {
  return PerCanvasCpu(frames, traced, [q](const std::vector<double>& ms) {
    return Quantile(ms, q);
  });
}

runtime::MetricsSnapshot Snapshot(World* world) { return world->server->metrics().snapshot(); }

/// Engine counters summed over the reader sessions. Call only between
/// phases, when no handler is running.
dataflow::EngineStats SumEngineStats(World* world) {
  dataflow::EngineStats sum;
  for (const SessionSlot& slot : world->readers) {
    const dataflow::EngineStats& stats = slot.ui->engine().stats();
    sum.boxes_fired += stats.boxes_fired;
    sum.cache_hits += stats.cache_hits;
    sum.shared_hits += stats.shared_hits;
  }
  return sum;
}

struct BatchCounters {
  uint64_t nodes_vectorized, nodes_fallback, simd_rows, dict_simd_batches, restrict_rows,
      morsels_executed, morsels_stolen;
};

BatchCounters ReadBatch() {
  const expr::BatchMetrics& m = expr::BatchMetrics::Global();
  return BatchCounters{m.nodes_vectorized.load(), m.nodes_fallback.load(),
                       m.simd_rows.load(),        m.dict_simd_batches.load(),
                       m.restrict_rows.load(),    m.morsels_executed.load(),
                       m.morsels_stolen.load()};
}

/// The per-layer metrics of the traced run (README.md "Per-layer metrics").
/// Timings come from all frames of the run; counters are deltas over the timed
/// window, except the edit-path counters, which cover the phase that ran the
/// edits (the window on edit_mix, the quiescent probe elsewhere).
std::vector<Metric> LayerMetrics(const PhaseResult& run, const PhaseResult& edits,
                                 const runtime::MetricsSnapshot& before,
                                 const runtime::MetricsSnapshot& after,
                                 const runtime::MetricsSnapshot& edit_before,
                                 const runtime::MetricsSnapshot& edit_after,
                                 const dataflow::EngineStats& engine_before,
                                 const dataflow::EngineStats& engine_after,
                                 const BatchCounters& batch_before,
                                 const BatchCounters& batch_after,
                                 const dataflow::EngineStats& editor,
                                 const Calibration& calibration) {
  // Layer timings come from every frame of the run: the handler takes the same
  // timestamps in the untraced slices, only the spans are left out.
  std::vector<double> all, queue, eval, render, unattributed;
  double cpu_ms = 0, handler_ms = 0;
  for (const FrameSample& f : run.frames) {
    all.push_back(f.latency_ms);
    cpu_ms += f.cpu_ms;
    handler_ms += f.handler_ms;
    queue.push_back(f.queue_ms);
    eval.push_back(f.eval_ms);
    render.push_back(f.render_ms);
    unattributed.push_back(f.latency_ms - f.queue_ms - f.eval_ms - f.render_ms);
  }
  // Generator lateness over every request of the timed window.
  std::vector<double> late;
  for (const FrameSample& f : run.frames) late.push_back(f.late_ms);
  for (const EditSample& e : run.edits) late.push_back(e.late_ms);
  std::vector<double> click, delta;
  for (const EditSample& e : edits.edits) {
    click.push_back(e.click_ms);
    delta.push_back(e.render_delta_ms);
  }
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  double frames = static_cast<double>(std::max<size_t>(1, run.frames.size()));
  double fired = d(engine_before.boxes_fired, engine_after.boxes_fired);
  double hits = d(engine_before.cache_hits, engine_after.cache_hits);
  double shared_hits = d(engine_before.shared_hits, engine_after.shared_hits);
  double vectorized = d(batch_before.nodes_vectorized, batch_after.nodes_vectorized);
  double fallback = d(batch_before.nodes_fallback, batch_after.nodes_fallback);
  double edit_count = static_cast<double>(edits.edits.size());
  const viewer::RenderStats& r = run.render;
  double tuples = static_cast<double>(r.tuples_total);
  std::vector<double> edit_ms;
  for (const EditSample& e : edits.edits) edit_ms.push_back(e.latency_ms);
  return {
      {"canvas_cpu_p50_ms", CanvasCpuQuantile(run.frames, 0.50, false), "ms"},
      {"frame_p50_ms", Quantile(all, 0.50), "ms"},
      {"frame_p99_ms", Quantile(all, 0.99), "ms"},
      {"frames_per_s", Share(static_cast<double>(run.frames_in_window), run.last_in_window),
       "1/s"},
      {"frames_per_cpu_s", Share(frames, cpu_ms / 1000), "1/s"},
      {"edit_p99_ms", Quantile(edit_ms, 0.99), "ms"},
      {"runtime.queue_wait_ms_p50", Quantile(queue, 0.50), "ms"},
      {"runtime.queue_wait_ms_p99", Quantile(queue, 0.99), "ms"},
      {"runtime.rejected", d(before.requests_rejected, after.requests_rejected), "count"},
      {"runtime.max_queue_depth", static_cast<double>(after.max_queue_depth), "count"},
      {"dataflow.eval_ms_p50", Quantile(eval, 0.50), "ms"},
      {"dataflow.eval_ms_p99", Quantile(eval, 0.99), "ms"},
      {"dataflow.boxes_fired_per_frame", fired / frames, "count"},
      {"dataflow.memo_hit_share", Share(hits, hits + fired), "ratio"},
      {"dataflow.shared_hit_share", Share(shared_hits, hits + fired), "ratio"},
      {"dataflow.shared_evictions",
       d(before.shared_cache_evictions, after.shared_cache_evictions), "count"},
      {"dataflow.deltas_applied_share",
       Share(static_cast<double>(editor.deltas_applied),
             static_cast<double>(editor.deltas_applied + editor.delta_fallbacks)),
       "ratio"},
      {"expr.vectorized_node_share", Share(vectorized, vectorized + fallback), "ratio"},
      {"expr.simd_rows_per_frame", d(batch_before.simd_rows, batch_after.simd_rows) / frames,
       "count"},
      {"expr.dict_simd_batches",
       d(batch_before.dict_simd_batches, batch_after.dict_simd_batches), "count"},
      {"db.restrict_rows_per_frame",
       d(batch_before.restrict_rows, batch_after.restrict_rows) / frames, "count"},
      {"db.morsels_per_frame",
       d(batch_before.morsels_executed, batch_after.morsels_executed) / frames, "count"},
      {"db.morsels_stolen", d(batch_before.morsels_stolen, batch_after.morsels_stolen),
       "count"},
      {"viewer.render_ms_p50", Quantile(render, 0.50), "ms"},
      {"viewer.render_ms_p99", Quantile(render, 0.99), "ms"},
      {"viewer.tuples_per_frame", tuples / frames, "count"},
      {"viewer.drawn_share", Share(static_cast<double>(r.tuples_drawn), tuples), "ratio"},
      {"viewer.culled_share",
       Share(static_cast<double>(r.tuples_culled_slider + r.tuples_culled_viewport), tuples),
       "ratio"},
      {"viewer.render_delta_ms_p50", Quantile(delta, 0.50), "ms"},
      {"update.click_update_ms_p50", Quantile(click, 0.50), "ms"},
      {"update.click_update_ms_p99", Quantile(click, 0.99), "ms"},
      {"storage.wal_bytes_per_edit",
       Share(d(edit_before.wal_bytes, edit_after.wal_bytes), edit_count), "B"},
      {"storage.wal_fsyncs", d(edit_before.wal_fsyncs, edit_after.wal_fsyncs), "count"},
      {"storage.snapshots_written",
       d(edit_before.snapshots_written, edit_after.snapshots_written), "count"},
      {"storage.snapshot_ms", edit_after.snapshot_ms - edit_before.snapshot_ms, "ms"},
      {"bench.unattributed_ms_p50", Quantile(unattributed, 0.50), "ms"},
      {"bench.generator_late_ms_p99", Quantile(late, 0.99), "ms"},
      {"bench.trace_overhead_share",
       Share(CanvasCpuMean(run.frames, true), CanvasCpuMean(run.frames, false)) - 1,
       "ratio"},
      {"bench.steal_share", 1 - Share(cpu_ms, handler_ms), "ratio"},
      {"bench.calib_spin_ms", calibration.spin_ms, "ms"},
      {"bench.calib_parallelism", calibration.parallelism, "ratio"},
  };
}

/// Frame CPU time and latency per canvas: the canvases the frame figures are
/// made of.
void PrintCanvasTable(const PhaseResult& run) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_canvas;
  for (const FrameSample& f : run.frames) {
    if (f.traced) continue;
    by_canvas[CanvasOf(f)].first.push_back(f.cpu_ms);
    by_canvas[CanvasOf(f)].second.push_back(f.latency_ms);
  }
  std::printf("frames by canvas (untraced):  CPU mean, p50, p90          latency p50, max\n");
  for (const auto& [canvas, ms] : by_canvas) {
    const auto& [cpu, latency] = ms;
    std::printf("  %-18s n=%-6zu %9.3f %9.3f %9.3f ms  %9.3f %9.3f ms\n", canvas.c_str(),
                cpu.size(), Mean(cpu), Quantile(cpu, 0.5), Quantile(cpu, 0.9),
                Quantile(latency, 0.5), Quantile(latency, 1.0));
  }
}

/// Self time per layer over the traced frames whose latency lies between the
/// 49th and 51st percentile, so the rows add up to (about) frame_p50_ms.
void PrintSelfTimes(const PhaseResult& run) {
  std::vector<double> latency;
  for (const FrameSample& f : run.frames) {
    if (f.traced) latency.push_back(f.latency_ms);
  }
  double lo = Quantile(latency, 0.49), hi = Quantile(latency, 0.51);
  double queue = 0, eval = 0, render = 0, total = 0;
  size_t n = 0;
  for (const FrameSample& f : run.frames) {
    if (!f.traced || f.latency_ms < lo || f.latency_ms > hi) continue;
    queue += f.queue_ms;
    eval += f.eval_ms;
    render += f.render_ms;
    total += f.latency_ms;
    ++n;
  }
  if (n == 0) return;
  double k = 1.0 / static_cast<double>(n);
  std::printf("self time per frame, traced frames between p49 and p51 (n=%zu, p50 %.4f ms):\n",
              n, Quantile(latency, 0.50));
  const struct {
    const char* layer;
    double ms;
  } rows[] = {{"runtime.queue (submit -> handler)", queue * k},
              {"dataflow.eval (ReplaceBox + Refresh)", eval * k},
              {"viewer.render (RenderTo)", render * k},
              {"unattributed (camera move, clear, spans)", (total - queue - eval - render) * k}};
  for (const auto& row : rows) {
    std::printf("  %-42s %9.4f ms  %5.1f%%\n", row.layer, row.ms, 100 * Share(row.ms, total * k));
  }
  std::printf("  %-42s %9.4f ms\n", "sum (mean latency of these frames)", total * k);
}

struct SetupTimes {
  std::vector<double> cpu_s, wall_s;
};

/// Times kSetupReps complete set-ups, each in process CPU time (every thread
/// counts: the server's workers load the sessions) and in wall time. They
/// run in a child process, so that they leave nothing behind in this one:
/// peak_rss_mb is then the peak of the one world the run uses. Run in this
/// process, the third set-up sometimes raised the peak by 23 MB of
/// allocator fragments on drilldown (321 or 344 MB from run to run). Call
/// with no other thread running: fork copies only the calling thread.
SetupTimes TimeSetups(const Spec& spec, uint64_t seed, const std::string& out_dir) {
  int fds[2];
  if (pipe(fds) != 0) Fatal("setup", Status::Internal("pipe failed"));
  std::fflush(nullptr);
  pid_t child = fork();
  if (child < 0) Fatal("setup", Status::Internal("fork failed"));
  if (child == 0) {
    close(fds[0]);
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      Clock::time_point a = Clock::now();
      double cpu0 = ProcessCpuS();
      std::unique_ptr<World> world = Setup(spec, seed, out_dir, rep);
      double times[2] = {ProcessCpuS() - cpu0, Ms(Clock::now() - a) / 1000.0};
      world.reset();
      if (write(fds[1], times, sizeof(times)) != static_cast<ssize_t>(sizeof(times))) _exit(1);
    }
    _exit(0);
  }
  close(fds[1]);
  SetupTimes times;
  double pair[2];
  while (read(fds[0], pair, sizeof(pair)) == static_cast<ssize_t>(sizeof(pair))) {
    times.cpu_s.push_back(pair[0]);
    times.wall_s.push_back(pair[1]);
  }
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || times.cpu_s.size() != kSetupReps) {
    Fatal("setup", Status::Internal("the set-up child process failed"));
  }
  return times;
}

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args = ParseArgs(argc, argv);
  std::optional<Spec> maybe_spec = MakeSpec(args.workload, args.tiny);
  if (!maybe_spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s' (browse, drilldown, edit_mix)\n",
                 args.workload.c_str());
    return 2;
  }
  const Spec& spec = *maybe_spec;
  std::string out_dir = ".bench_build/perfbench";
  std::filesystem::create_directories(out_dir);
  if (args.trace_out.empty()) {
    args.trace_out = out_dir + "/trace-" + spec.name + "-" + std::to_string(args.seed) + ".json";
  }
  Clock::time_point origin = Clock::now();

  Calibration calibration = Calibrate(args.tiny ? 2000000 : 60000000);
  std::printf("calibration: spin %.2f ms single-thread, measured parallelism %.2f of %zu\n",
              calibration.spin_ms, calibration.parallelism, kPoolThreads);

  // Set-up: timed in CPU time, for the reason the frames are (README.md
  // "Why the frame figures are CPU time"), then once more for the run.
  SetupTimes setup_times = TimeSetups(spec, args.seed, out_dir);
  double setup_s = Quantile(setup_times.cpu_s, 0.5);
  std::unique_ptr<World> world = Setup(spec, args.seed, out_dir, kSetupReps);
  std::printf("setup: %zu sessions (%zu programs), %lld stations, median %.3f s CPU, %.3f s "
              "wall, of %zu\n",
              world->readers.size(), spec.sessions.size(),
              static_cast<long long>(world->num_stations), setup_s,
              Quantile(setup_times.wall_s, 0.5), setup_times.cpu_s.size());

  Tracer tracer(origin);
  Context ctx;
  ctx.world = world.get();
  ctx.spec = &spec;
  ctx.tracer = &tracer;
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 1);

  // The timed window.
  runtime::MetricsSnapshot before = Snapshot(world.get());
  BatchCounters batch_before = ReadBatch();
  dataflow::EngineStats engine_before = SumEngineStats(world.get());
  PhaseConfig window;
  window.seconds = args.seconds;
  window.clients = spec.clients;
  window.edits = spec.edit_rate > 0;
  window.edit_rate = spec.edit_rate;
  window.trace = args.trace;
  window.sample_pixels = spec.edit_rate == 0;
  PhaseResult run = RunPhase(&ctx, window, &rng);
  // Peak memory of set-up and the timed window, read before the output check
  // and the edit probe add their own.
  double peak_rss = PeakRssMb();
  runtime::MetricsSnapshot after = Snapshot(world.get());
  BatchCounters batch_after = ReadBatch();
  dataflow::EngineStats engine_after = SumEngineStats(world.get());

  PixelCheck check;
  Reference reference(&world->env->catalog());
  for (const auto& op : run.samples) {
    check.Compare(&reference, op->session->program, op->shown_predicate, op->view->canvas,
                  op->ppm, op->cameras);
  }

  // Quiescent edit probe (workloads without edits in the window).
  PhaseResult probe;
  runtime::MetricsSnapshot edit_before = before, edit_after = after;
  if (spec.probe_edits > 0) {
    // The probe's edits are logged like edit_mix's: attach persistence now,
    // after the window, whose readers never write.
    Clock::time_point attach = Clock::now();
    AttachStorage(world.get(), out_dir + "/wal-" + std::to_string(getpid()) + "-probe");
    std::printf("edit probe: persistence attached in %.3f s\n",
                Ms(Clock::now() - attach) / 1000);
    edit_before = Snapshot(world.get());
    PhaseConfig config;
    config.seconds = 120;
    config.edits = true;
    config.max_edits = spec.probe_edits;
    config.trace = args.trace;
    probe = RunPhase(&ctx, config, &rng);
    edit_after = Snapshot(world.get());
  }
  const PhaseResult& edit_phase = spec.probe_edits > 0 ? probe : run;

  // Final frames: the editor's delta-maintained framebuffer always; every
  // reader session too when edits ran beside the readers.
  Reference final_reference(&world->env->catalog());
  CheckFinalFrame(world.get(), &world->editor, &world->editor.viewers.front(), false,
                  &final_reference, &check);
  if (spec.edit_rate > 0) {
    for (SessionSlot& session : world->readers) {
      for (ViewerSlot& view : session.viewers) {
        CheckFinalFrame(world.get(), &session, &view, true, &final_reference, &check);
      }
    }
  }

  // ---- end-to-end figures
  // With tracing on, the end-to-end frame figures come from untraced slices.
  std::vector<double> frame_ms;
  double frame_cpu_ms = 0;
  for (const FrameSample& f : run.frames) {
    if (f.traced) continue;
    frame_ms.push_back(f.latency_ms);
    frame_cpu_ms += f.cpu_ms;
  }
  std::vector<double> edit_ms;
  for (const EditSample& e : edit_phase.edits) edit_ms.push_back(e.latency_ms);
  uint64_t attempted = run.attempted + probe.attempted;
  uint64_t op_failures = run.rejected + run.timed_out + run.errors + probe.rejected +
                         probe.timed_out + probe.errors;
  uint64_t failed = op_failures + check.mismatches;
  double failed_share = Share(static_cast<double>(failed), static_cast<double>(attempted));
  double frames_per_s = Share(static_cast<double>(run.frames_in_window), run.last_in_window);

  double frame_p50 = Quantile(frame_ms, 0.50), frame_p99 = Quantile(frame_ms, 0.99);
  double cpu_mean = CanvasCpuMean(run.frames, false);
  double cpu_p50 = CanvasCpuQuantile(run.frames, 0.50, false);
  double cpu_p90 = CanvasCpuQuantile(run.frames, 0.90, false);
  double frames_per_cpu_s = Share(static_cast<double>(frame_ms.size()), frame_cpu_ms / 1000);
  double edit_p50 = Quantile(edit_ms, 0.50);
  std::vector<Metric> e2e = {
      {"canvas_cpu_mean_ms", cpu_mean, "ms"},
      {"canvas_cpu_p90_ms", cpu_p90, "ms"},
      {"edit_p50_ms", edit_p50, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };

  std::printf("workload %s seed %llu: %.2f s window, %zu frames, %zu edits%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), run.window_s,
              frame_ms.size(), edit_ms.size(),
              spec.probe_edits > 0 ? " (quiescent probe after the window)" : "");
  std::printf("  %-18s %12.4f ms   (geometric mean of %zu per-canvas CPU means)\n",
              "canvas_cpu_mean_ms", cpu_mean, CanvasCount(run.frames));
  std::printf("  %-18s %12.4f ms   (per-layer; geometric mean of per-canvas CPU medians)\n",
              "canvas_cpu_p50_ms", cpu_p50);
  std::printf("  %-18s %12.4f ms   (geometric mean of %zu per-canvas CPU p90s)\n",
              "canvas_cpu_p90_ms", cpu_p90, CanvasCount(run.frames));
  std::printf("  %-18s %12.4f 1/s  (per-layer; %zu frames in %.3f s of frame CPU time)\n",
              "frames_per_cpu_s", frames_per_cpu_s, frame_ms.size(), frame_cpu_ms / 1000);
  std::printf("  %-18s %12.4f ms   (per-layer; n=%zu, %zu beyond p99)\n", "frame_p50_ms",
              frame_p50, frame_ms.size(), SamplesBeyond(frame_ms.size(), 0.99));
  std::printf("  %-18s %12.4f ms   (per-layer; n=%zu, %zu beyond p99)\n", "frame_p99_ms",
              frame_p99, frame_ms.size(), SamplesBeyond(frame_ms.size(), 0.99));
  std::printf("  %-18s %12.4f 1/s  (per-layer; %zu frames in %.3f s)\n", "frames_per_s",
              frames_per_s, run.frames_in_window, run.last_in_window);
  std::printf("  %-18s %12.4f ms   (n=%zu, %zu beyond p99)\n", "edit_p50_ms", edit_p50,
              edit_ms.size(), SamplesBeyond(edit_ms.size(), 0.99));
  std::printf("  %-18s %12.4f ms   (per-layer; n=%zu, %zu beyond p99)\n", "edit_p99_ms",
              Quantile(edit_ms, 0.99), edit_ms.size(), SamplesBeyond(edit_ms.size(), 0.99));
  std::printf("  %-18s %12.6f ratio (%llu failed of %llu attempted: %llu rejected, %llu "
              "expired, %llu errors, %zu pixel mismatches)\n",
              "failed_share", failed_share, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(run.rejected + probe.rejected),
              static_cast<unsigned long long>(run.timed_out + probe.timed_out),
              static_cast<unsigned long long>(run.errors + probe.errors), check.mismatches);
  std::printf("  %-18s %12.4f s    (process CPU time, median of %zu set-ups)\n", "setup_s",
              setup_s, setup_times.cpu_s.size());
  std::printf("  %-18s %12.1f MB   (after the timed window)\n", "peak_rss_mb", peak_rss);
  if (spec.edit_rate > 0) {
    std::vector<double> handler_ms;
    for (const EditSample& e : run.edits) handler_ms.push_back(e.handler_ms);
    double busy_ms = 0;
    for (double ms : handler_ms) busy_ms += ms;
    std::printf("edit load: %.0f edits/s open loop; handler p50 %.4f ms; edits kept one worker "
                "%.3f busy\n",
                spec.edit_rate, Quantile(handler_ms, 0.5),
                Share(busy_ms / 1000.0, run.window_s));
  }
  PrintCanvasTable(run);
  std::printf("pixel check: %zu frames compared against the scalar reference, %zu "
              "mismatches\n",
              check.compared, check.mismatches);
  if (!run.first_error.empty()) std::printf("first error: %s\n", run.first_error.c_str());
  if (!probe.first_error.empty()) std::printf("first error: %s\n", probe.first_error.c_str());
  if (!check.first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", check.first_mismatch.c_str());
  }

  std::vector<Metric> metrics = e2e;
  if (args.trace) {
    metrics = LayerMetrics(run, edit_phase, before, after, edit_before, edit_after,
                           engine_before, engine_after, batch_before, batch_after,
                           world->editor.ui->engine().stats(), calibration);
    PrintSelfTimes(run);
    std::printf("trace: %zu spans -> %s\n", tracer.size(), args.trace_out.c_str());
    if (!tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  bool correct = failed == 0 && check.compared > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  world.reset();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tioga2::perfbench

int main(int argc, char** argv) { return tioga2::perfbench::Main(argc, argv); }
