/// \file daemon.h
/// \brief ppbench: one `ppref_served` child process — start, scrape, stop.
#ifndef PPBENCH_DAEMON_H_
#define PPBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace ppbench {

class DaemonProcess {
 public:
  /// Runs `binary args... --port 0 --port-file <dir>/port` with its output
  /// in <dir>/daemon.log and waits until it listens. The child gets SIGKILL
  /// if this process dies first. Returns nullptr (and `*error`) on failure.
  static std::unique_ptr<DaemonProcess> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& dir, std::string* error);

  /// Stops the daemon if Stop() was not called.
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// GET /metrics.json, parsed.
  bool ScrapeMetrics(Scrape* out) const;

  /// SIGTERM (graceful drain, store flush) and wait; true when the daemon
  /// exited 0. Escalates to SIGKILL after 20 s.
  bool Stop();

 private:
  DaemonProcess(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace ppbench

#endif  // PPBENCH_DAEMON_H_
