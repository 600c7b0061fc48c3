#include "workload.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace ppbench {

std::unique_ptr<ppref::net::Client> ConnectClient(int port) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    ppref::StatusOr<ppref::net::Client> client =
        ppref::net::Client::Connect("127.0.0.1", port);
    if (client.ok()) {
      return std::make_unique<ppref::net::Client>(std::move(client).value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return nullptr;
}

bool OnEachConnection(unsigned connections,
                      const std::function<bool(unsigned)>& fn) {
  std::vector<char> ok(connections, 0);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] { ok[c] = fn(c); });
  }
  for (std::thread& thread : threads) thread.join();
  return std::all_of(ok.begin(), ok.end(), [](char x) { return x != 0; });
}

void NetReplayMetrics(const Tracer& tracer, const WireBytes& bytes,
                      LayerMetrics* out) {
  (*out)["net.encode_request_us"] = tracer.MedianUs("net.encode_request");
  (*out)["net.decode_request_us"] = tracer.MedianUs("net.decode_request");
  (*out)["net.codec_response_us"] = tracer.MedianUs("net.encode_response") +
                                    tracer.MedianUs("net.decode_response");
  if (bytes.requests > 0) {
    (*out)["net.request_bytes"] = bytes.request_bytes / bytes.requests;
    (*out)["net.response_bytes"] = bytes.response_bytes / bytes.requests;
  }
}

}  // namespace ppbench
