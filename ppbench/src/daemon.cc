#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "ppref/net/client.h"

namespace ppbench {

namespace {

/// waitpid with a timeout; true when the child was reaped (status in
/// `*status`).
bool WaitFor(pid_t pid, double seconds, int* status) {
  const double until = NowSeconds() + seconds;
  while (true) {
    const pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0 || NowSeconds() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

std::unique_ptr<DaemonProcess> DaemonProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& dir, std::string* error) {
  const std::string port_file = dir + "/port";
  const std::string log_file = dir + "/daemon.log";
  unlink(port_file.c_str());
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.insert(argv_storage.end(),
                      {"--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();

  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int log = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }

  const double until = NowSeconds() + 30.0;
  while (NowSeconds() < until) {
    std::ifstream in(port_file);
    std::string line;
    if (std::getline(in, line) && !line.empty() && in.good()) {
      return std::unique_ptr<DaemonProcess>(
          new DaemonProcess(pid, std::stoi(line)));
    }
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      *error = "ppref_served exited during start-up; see " + log_file;
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  *error = "ppref_served did not listen within 30 s";
  return nullptr;
}

DaemonProcess::~DaemonProcess() { Stop(); }

bool DaemonProcess::ScrapeMetrics(Scrape* out) const {
  ppref::StatusOr<ppref::net::HttpResult> result = ppref::net::HttpFetch(
      "127.0.0.1", port_, "GET", "/metrics.json", "", 10000, 10000);
  return result.ok() && result->status_code == 200 &&
         ParseScrape(result->body, out);
}

bool DaemonProcess::Stop() {
  if (pid_ < 0) return true;
  const pid_t pid = pid_;
  pid_ = -1;
  int status = 0;
  kill(pid, SIGTERM);
  if (!WaitFor(pid, 20.0, &status)) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace ppbench
