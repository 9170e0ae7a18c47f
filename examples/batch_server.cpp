// The batch server, promoted to a real service: serve::Server puts
// handler threads that each evaluate on their own Evaluator session, the
// versioned DocumentStore, per-tenant plan caches and admission control
// behind an embedded HTTP endpoint.
// See docs/http_api.md for the wire surface and docs/operations.md for
// the metrics this process exports at /metrics.
//
//   ./build/batch_server [port]       (default 8080; 0 = ephemeral)
//
//   curl -s localhost:8080/query -d \
//     '{"doc": "catalog", "xpath": "//book[@year > 2000]/title"}'

#include <cstdio>
#include <cstdlib>

#include "src/xpe.h"

int main(int argc, char** argv) {
  using namespace xpe;

  long port = 8080;
  if (argc > 1) {
    char* end = nullptr;
    port = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || port < 0 || port > 65535) {
      std::fprintf(stderr, "usage: %s [port 0-65535]\n", argv[0]);
      return 2;
    }
  }

  serve::ServeOptions options;
  options.port = static_cast<int>(port);
  serve::Server server(options);  // publishes into obs::Registry::Global()

  // Seed the store; Put parses, warms the lazy caches, and publishes —
  // later PUT /documents/catalog hot-swaps without dropping a request.
  server.documents().Put("catalog", xml::Parse(R"(<catalog>
    <book id="b1" year="1999"><title>Data on the Web</title></book>
    <book id="b2" year="2002"><title>XPath Essentials</title></book>
    <book id="b3" year="2003"><title>Efficient XPath</title></book>
  </catalog>)").value());
  server.documents().Put("auctions", xml::MakeAuctionDocument(25, /*seed=*/7));

  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("serving on http://127.0.0.1:%d  (POST /query, GET /documents,"
              " /metrics, /healthz)\npress Enter to stop\n", server.port());
  std::getchar();
  server.Stop();  // drains the queue, joins every thread
  return 0;
}
