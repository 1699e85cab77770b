#include "perfbench/server_proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

// Waits for `pid` for up to timeout_ms; returns true (with *status) once
// reaped.
bool WaitFor(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) {
      return true;
    }
    if (r < 0) {
      *status = -1;
      return true;  // not our child any more; nothing left to reap
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Spawn(const std::string& cli,
                                                    const std::vector<std::string>& args,
                                                    const std::string& dir, const std::string& tag,
                                                    std::string* error) {
  const std::string port_path = dir + "/" + tag + ".port";
  const std::string log_path = dir + "/" + tag + ".log";
  ::unlink(port_path.c_str());

  std::vector<std::string> argv_s = {cli, "serve", "--port=0", "--port-file=" + port_path};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, 0, log_path));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream pf(port_path);
    std::string text((std::istreambuf_iterator<char>(pf)), std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      proc->port_ = static_cast<uint16_t>(std::stoul(text));
      return proc;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      proc->pid_ = -1;
      *error = "server exited during start-up; see " + log_path;
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *error = "server did not report its port within 10 s; see " + log_path;
  return nullptr;  // the destructor stops the child
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    Stop(5'000);
  }
}

uint64_t ServerProcess::CpuNs() const {
  uint64_t total = 0;
  const std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(task_dir.c_str());
  if (d == nullptr) {
    return 0;
  }
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') {
      continue;
    }
    std::ifstream f(task_dir + "/" + e->d_name + "/schedstat");
    uint64_t on_cpu_ns = 0;
    if (f >> on_cpu_ns) {
      total += on_cpu_ns;
    }
  }
  ::closedir(d);
  return total;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool ServerProcess::Stop(int timeout_ms) {
  if (pid_ <= 0) {
    return false;
  }
  int status = 0;
  ::kill(pid_, SIGTERM);
  if (!WaitFor(pid_, timeout_ms, &status)) {
    ::kill(pid_, SIGKILL);
    WaitFor(pid_, 60'000, &status);
    status = -1;
  }
  pid_ = -1;
  return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
