// sndr_serve — persistent multi-tenant optimization service (no network:
// jobs arrive as config files in a spool directory or as lines on stdin).
//
//   sndr_serve --spool DIR [--workers N] [--memory-budget B] [--threads N]
//              [--metrics-out f] [--trace-out f]
//       Submit every `*.job` file in DIR (lexicographic order; each file
//       is a `key = value` FlowConfig, same syntax as `sndr run
//       --config`), drain, and print one result line per job.
//
//   sndr_serve --stdin [--workers N] [--memory-budget B] [--threads N]
//              [--metrics-out f] [--trace-out f]
//       Line protocol on stdin, one command per line:
//         submit key=value [key=value ...]   enqueue a job, print its id
//         submit-file PATH                   enqueue a .job config file
//         cancel ID                          fire the job's cancel token
//         wait ID                            block, print the result line
//         status                             queue depth + counters
//         drain                              finish queued jobs, exit
//         shutdown                           cancel everything, exit
//       EOF acts like `drain`.
//
// Admission control: with --memory-budget set, every job must declare its
// own memory_budget (rejected otherwise), and dispatch blocks until the
// declared sum fits. --workers is the number of concurrent jobs;
// --threads is the process-global evaluation lane count the jobs inherit
// (per-job `threads` keys are overridden by the server). A running job
// counts as one busy lane: the pool's threads help a job's parallel
// regions only with the lanes the running jobs leave idle, so at
// --workers >= --threads with a full queue each job runs its regions on
// its own worker. Results do not depend on either flag.
//
// --metrics-out writes the server-level manifest after shutdown: serve.*
// admission counters, queue-depth gauge, per-job wall-time histogram, and
// the accumulated core metrics of every job it ran.
//
// Exit codes: 0 when every job completed with an ok status (feasible or
// not — see each result line), 1 when any job failed, was cancelled, or
// was rejected at admission (a rejected spool must not read as success),
// 2 for a usage error.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "flow/config.hpp"
#include "obs/manifest.hpp"
#include "serve/server.hpp"

namespace {

using namespace sndr;

void print_usage(std::ostream& os) {
  os << "usage:\n"
        "  sndr_serve --spool DIR  [--workers N] [--memory-budget B]\n"
        "             [--threads N] [--metrics-out f] [--trace-out f]\n"
        "  sndr_serve --stdin      [same flags]\n"
        "\n"
        "  --spool DIR: submit every *.job file in DIR (each a\n"
        "               `key = value` FlowConfig file), drain, report.\n"
        "  --stdin:     line protocol (submit/submit-file/cancel/wait/\n"
        "               status/drain/shutdown; EOF = drain).\n"
        "  --workers N: concurrent jobs (default 1); each running job\n"
        "               holds one of the --threads lanes.\n"
        "  --memory-budget B: server admission budget (k/M/G suffixes);\n"
        "               jobs must then declare memory_budget or be\n"
        "               rejected, and dispatch never oversubscribes.\n"
        "  --threads N: process-global evaluation lanes the jobs share\n"
        "               (default: hardware concurrency); the pool lends\n"
        "               the lanes running jobs leave idle to their\n"
        "               parallel regions. Output never depends on it.\n"
        "  --metrics-out f: server-level manifest (written at shutdown).\n"
        "  --trace-out f:   server-level Chrome trace.\n";
}

struct ServeArgs {
  std::string spool;
  bool use_stdin = false;
  serve::ServerOptions options;
  std::string metrics_out;
  std::string trace_out;
  std::vector<std::string> raw;
};

/// Parse --memory-budget through the same k/M/G-suffixed parser config
/// files use, by way of a scratch FlowConfig.
common::Status parse_budget(const std::string& v, std::size_t& out) {
  flow::FlowConfig scratch;
  if (common::Status s = scratch.set("memory_budget", v); !s.ok()) return s;
  out = scratch.memory_budget_bytes;
  return common::Status::Ok();
}

common::Status parse_serve_args(int argc, char** argv, ServeArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    args.raw.push_back(a);
    auto value = [&](const char* flag) -> common::Result<std::string> {
      if (i + 1 >= argc) {
        return common::Status::InvalidArgument(std::string(flag) +
                                               " needs a value");
      }
      args.raw.emplace_back(argv[i + 1]);
      return std::string(argv[++i]);
    };
    if (a == "--spool") {
      auto v = value("--spool");
      if (!v.ok()) return v.status();
      args.spool = v.value();
    } else if (a == "--stdin") {
      args.use_stdin = true;
    } else if (a == "--workers") {
      auto v = value("--workers");
      if (!v.ok()) return v.status();
      args.options.workers = std::stoi(v.value());
    } else if (a == "--memory-budget") {
      auto v = value("--memory-budget");
      if (!v.ok()) return v.status();
      if (common::Status s =
              parse_budget(v.value(), args.options.memory_budget_bytes);
          !s.ok()) {
        return s;
      }
    } else if (a == "--threads") {
      auto v = value("--threads");
      if (!v.ok()) return v.status();
      args.options.thread_budget = common::ThreadBudget(std::stoi(v.value()));
    } else if (a == "--metrics-out") {
      auto v = value("--metrics-out");
      if (!v.ok()) return v.status();
      args.metrics_out = v.value();
    } else if (a == "--trace-out") {
      auto v = value("--trace-out");
      if (!v.ok()) return v.status();
      args.trace_out = v.value();
    } else if (a == "--help" || a == "-h" || a == "help") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      return common::Status::InvalidArgument("unknown flag '" + a + "'");
    }
  }
  if (args.spool.empty() == !args.use_stdin) {
    return common::Status::InvalidArgument(
        "exactly one of --spool DIR or --stdin is required");
  }
  return common::Status::Ok();
}

void print_record(const serve::JobRecord& r, std::ostream& os) {
  os << "job " << r.id << " " << r.design_path << ": ";
  if (!r.outcome.ok()) {
    os << r.outcome.status.to_string();
  } else if (r.outcome.dse) {
    // DSE jobs have no single result — summarize the sweep.
    os << "dse points=" << r.outcome.dse->points.size()
       << " front=" << r.outcome.dse->front.size()
       << " warm=" << r.outcome.dse->warm_started
       << " wall=" << r.outcome.wall_seconds << "s";
  } else if (r.outcome.result) {
    os << (r.outcome.feasible() ? "feasible" : "infeasible") << " power="
       << r.outcome.result->final_eval().power.total_power
       << " wall=" << r.outcome.wall_seconds << "s";
  } else {
    os << "ok";
  }
  os << "\n";
}

bool all_ok(const std::vector<serve::JobRecord>& records) {
  return std::all_of(records.begin(), records.end(),
                     [](const serve::JobRecord& r) { return r.outcome.ok(); });
}

/// One `submit key=value ...` line -> FlowConfig. Values may not contain
/// spaces (the protocol is line- and space-delimited by design).
common::Status config_from_tokens(const std::vector<std::string>& tokens,
                                  flow::FlowConfig& config) {
  for (const std::string& t : tokens) {
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      return common::Status::InvalidArgument("expected key=value, got '" + t +
                                             "'");
    }
    if (common::Status s = config.set(t.substr(0, eq), t.substr(eq + 1));
        !s.ok()) {
      return s;
    }
  }
  return common::Status::Ok();
}

int run_spool(serve::Server& server, const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".job") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::cerr << "error: cannot read spool dir " << dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  std::sort(files.begin(), files.end());
  int rejected = 0;
  for (const std::string& file : files) {
    flow::FlowConfig config;
    config.tool = "sndr_serve";
    config.command = "spool";
    if (common::Status s = config.from_file(file); !s.ok()) {
      std::cerr << "error: " << file << ": " << s.to_string() << "\n";
      ++rejected;  // a malformed job file must not sink the whole spool…
      continue;    // …but it must surface in the exit code.
    }
    common::Result<int> id = server.submit(std::move(config));
    if (id.ok()) {
      std::cout << "submitted " << id.value() << " " << file << "\n";
    } else {
      std::cerr << "rejected " << file << ": " << id.status().to_string()
                << "\n";
      ++rejected;
    }
  }
  const std::vector<serve::JobRecord> records = server.drain();
  for (const serve::JobRecord& r : records) print_record(r, std::cout);
  return (all_ok(records) && rejected == 0) ? 0 : 1;
}

void print_status(serve::Server& server) {
  const auto snap = server.metrics_snapshot();
  std::cout << "queue=" << server.queue_depth()
            << " submitted=" << snap.counter("serve.jobs_submitted")
            << " admitted=" << snap.counter("serve.jobs_admitted")
            << " rejected=" << snap.counter("serve.jobs_rejected")
            << " completed=" << snap.counter("serve.jobs_completed")
            << " failed=" << snap.counter("serve.jobs_failed")
            << " cancelled=" << snap.counter("serve.jobs_cancelled") << "\n";
}

int run_stdin(serve::Server& server) {
  std::string line;
  bool cancelled_shutdown = false;
  int rejected = 0;
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "submit" || cmd == "submit-file") {
      flow::FlowConfig config;
      config.tool = "sndr_serve";
      config.command = cmd;
      common::Status parsed = common::Status::Ok();
      if (cmd == "submit") {
        std::vector<std::string> tokens;
        for (std::string t; iss >> t;) tokens.push_back(t);
        parsed = config_from_tokens(tokens, config);
      } else {
        std::string path;
        iss >> path;
        parsed = path.empty() ? common::Status::InvalidArgument(
                                    "submit-file needs a path")
                              : config.from_file(path);
      }
      if (!parsed.ok()) {
        std::cout << "error: " << parsed.to_string() << "\n";
        continue;
      }
      common::Result<int> id = server.submit(std::move(config));
      if (id.ok()) {
        std::cout << "submitted " << id.value() << "\n";
      } else {
        std::cout << "rejected: " << id.status().to_string() << "\n";
        ++rejected;
      }
    } else if (cmd == "cancel") {
      int id = -1;
      iss >> id;
      std::cout << (server.cancel(id) ? "cancelling " : "unknown job ") << id
                << "\n";
    } else if (cmd == "wait") {
      int id = -1;
      iss >> id;
      common::Result<serve::JobRecord> rec = server.wait(id);
      if (rec.ok()) {
        print_record(rec.value(), std::cout);
      } else {
        std::cout << "error: " << rec.status().to_string() << "\n";
      }
    } else if (cmd == "status") {
      print_status(server);
    } else if (cmd == "drain") {
      break;
    } else if (cmd == "shutdown") {
      cancelled_shutdown = true;
      break;
    } else {
      std::cout << "error: unknown command '" << cmd << "'\n";
    }
  }
  if (cancelled_shutdown) {
    server.shutdown(serve::Server::Shutdown::kCancel);
  }
  const std::vector<serve::JobRecord> records = server.drain();
  for (const serve::JobRecord& r : records) print_record(r, std::cout);
  return (all_ok(records) && rejected == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  ServeArgs args;
  if (common::Status s = parse_serve_args(argc, argv, args); !s.ok()) {
    std::cerr << "error: " << s.to_string() << "\n";
    print_usage(std::cerr);
    return 2;
  }

  int rc = 0;
  serve::Server server(args.options);
  try {
    rc = args.use_stdin ? run_stdin(server) : run_spool(server, args.spool);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 2;
  }

  // Server-level manifest: serve.* counters/gauges/histogram plus the
  // accumulated per-job metrics, snapshotted from the server's own scope.
  try {
    server.metrics_snapshot();  // refresh the queue/running gauges.
    obs::ScopeBinding binding(server.obs_scope());
    if (!args.metrics_out.empty()) {
      obs::RunInfo info;
      info.tool = "sndr_serve";
      info.command = args.use_stdin ? "stdin" : "spool";
      info.args = args.raw;
      info.threads = common::thread_count();
      info.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      obs::write_run_manifest(args.metrics_out, info);
      std::cout << "wrote " << args.metrics_out << "\n";
    }
    if (!args.trace_out.empty()) {
      obs::write_chrome_trace_file(args.trace_out);
      std::cout << "wrote " << args.trace_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (rc == 0) rc = 5;
  }
  return rc;
}
