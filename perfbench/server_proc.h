// The compression server under test, run as a separate process:
// `cdpu_cli serve` is spawned with an ephemeral port, its bound port is read
// back from --port-file, and its CPU time and peak memory are read from
// /proc while it serves.

#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  // Runs `cli serve <args> --port=0 --port-file=<dir>/<tag>.port`, with
  // stdout and stderr going to <dir>/<tag>.log, and waits until the port
  // file appears. Returns null (with *error set) if the server does not come
  // up within 10 s.
  static std::unique_ptr<ServerProcess> Spawn(const std::string& cli,
                                              const std::vector<std::string>& args,
                                              const std::string& dir, const std::string& tag,
                                              std::string* error);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  const std::string& log_path() const { return log_path_; }

  // On-CPU nanoseconds (user + system) summed over the server's threads.
  uint64_t CpuNs() const;
  // Peak resident set (VmHWM) in MB.
  double PeakRssMb() const;

  // SIGTERM, then SIGKILL if the server has not exited after timeout_ms.
  // Always reaps the child. Returns true if it exited with status 0.
  bool Stop(int timeout_ms = 20'000);

 private:
  ServerProcess(pid_t pid, uint16_t port, std::string log_path)
      : pid_(pid), port_(port), log_path_(std::move(log_path)) {}

  pid_t pid_ = -1;  // -1 once reaped
  uint16_t port_ = 0;
  std::string log_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
