// logsimd -- the logsim prediction daemon (DESIGN.md §12).
//
//   logsimd [--port N] [--host ADDR] [--workers N] [--reactors N]
//           [--coalesce-max N] [--coalesce-window-us N]
//           [--max-inflight N] [--deadline-ms N] [--cache-mb N]
//
// Binds a serve::Server, prints "listening on HOST:PORT" (port 0 resolves
// to the kernel-chosen ephemeral port -- scripts parse this line), then
// runs until SIGINT/SIGTERM.  On shutdown it cancels inflight work,
// drains the threads and prints the final metrics snapshot to stderr.
//
// All connections share one BatchPredictor: the prediction cache and the
// comm-step cache are process-wide, so a program predicted by one client
// is a memory-speed cache hit for every other client.  --reactors shards
// connections across N epoll threads; --coalesce-max /
// --coalesce-window-us tune the cross-connection micro-batching
// (DESIGN.md §14).

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <logsim/serve.hpp>

using namespace logsim;

namespace {

void usage() {
  std::cerr << "usage: logsimd [--port N] [--host ADDR] [--workers N]\n"
               "               [--reactors N]\n"
               "               [--coalesce-max N] [--coalesce-window-us N]\n"
               "               [--max-inflight N] [--deadline-ms N]\n"
               "               [--cache-mb N]\n";
}

}  // namespace

int main(int argc, char** argv) {
  serve::Server::Config config;
  config.port = 4242;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      config.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--host" && i + 1 < argc) {
      config.host = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      config.workers = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--reactors" && i + 1 < argc) {
      config.reactors = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--coalesce-max" && i + 1 < argc) {
      config.coalesce_max = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--coalesce-window-us" && i + 1 < argc) {
      config.coalesce_window = std::chrono::microseconds(std::atoll(argv[++i]));
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      config.max_inflight_per_conn =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      config.default_deadline = std::chrono::milliseconds(std::atoll(argv[++i]));
    } else if (arg == "--cache-mb" && i + 1 < argc) {
      config.prediction_cache.byte_budget =
          static_cast<std::size_t>(std::atoll(argv[++i])) << 20;
    } else {
      usage();
      return 2;
    }
  }

  // Block the shutdown signals BEFORE spawning server threads so every
  // thread inherits the mask and only this one (via sigwait) takes them.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::cerr << "logsimd: cannot set the signal mask\n";
    return 1;
  }

  serve::Server server{config};
  if (const Status st = server.start(); !st.ok()) {
    std::cerr << "logsimd: " << st.to_string() << '\n';
    return 1;
  }
  std::cout << "listening on " << config.host << ":" << server.port()
            << std::endl;  // flush: scripts wait for this line

  int sig = 0;
  sigwait(&mask, &sig);
  std::cerr << "logsimd: caught " << strsignal(sig) << ", shutting down\n";
  server.stop();
  std::cerr << server.metrics().to_string();
  return 0;
}
