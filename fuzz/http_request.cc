// Fuzz harness: HTTP request framing and parsing (net/http_server.h).
//
// Throws arbitrary bytes at the two functions the server runs on every
// byte a client sends, on the same input:
//
//   * ParseHttpRequestHead, over the whole input as one collected head —
//     the exact function the server runs before the 405/handler policy.
//     Checks the parse postconditions the routing layer relies on:
//     non-empty method and path, the query split off the path, and
//     Param() lookups total over any query string.
//   * SplitHttpRequestHead, over the whole input as one connection's byte
//     stream: pipelined heads are framed off the front the way the serve
//     loop does, each ending at the earliest CRLFCRLF/LFLF, with keep-alive
//     only for an HTTP/1.1 request line; every framed head is parsed too.
//     Bodies are never read, so each framed head with a body header
//     (Content-Length or Transfer-Encoding) spliced in after its request
//     line must lose keep-alive, whatever its other headers say.

#include <cstdint>
#include <string>
#include <string_view>

#include "fuzz/fuzz_input.h"
#include "net/http_server.h"

namespace {

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

void CheckParse(std::string_view head) {
  ldpm::net::HttpRequest request;
  if (!ldpm::net::ParseHttpRequestHead(head, &request)) return;

  LDPM_FUZZ_ASSERT(!request.method.empty(), "parsed an empty method");
  LDPM_FUZZ_ASSERT(!request.path.empty(), "parsed an empty path");
  LDPM_FUZZ_ASSERT(request.path.find('?') == std::string::npos,
                   "query string left inside the path");

  // Param() must be total over whatever query came through — including
  // keys that appear in it and keys that cannot.
  (void)request.Param("collection");
  (void)request.Param("");
  const size_t amp = request.query.find('&');
  const std::string_view first_pair =
      amp == std::string::npos ? std::string_view(request.query)
                               : std::string_view(request.query).substr(0, amp);
  const size_t eq = first_pair.find('=');
  const std::string first_key(
      eq == std::string_view::npos ? first_pair : first_pair.substr(0, eq));
  if (!first_key.empty()) {
    LDPM_FUZZ_ASSERT(request.Param(first_key).has_value(),
                     "first query key did not resolve");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  CheckParse(bytes);

  std::string_view rest = bytes;
  for (;;) {
    const ldpm::net::HttpHeadSplit split =
        ldpm::net::SplitHttpRequestHead(rest);
    if (split.length == 0) {
      LDPM_FUZZ_ASSERT(!split.keep_alive, "keep-alive without a head");
      LDPM_FUZZ_ASSERT(rest.find("\r\n\r\n") == std::string_view::npos &&
                           rest.find("\n\n") == std::string_view::npos,
                       "missed a head terminator");
      break;
    }
    LDPM_FUZZ_ASSERT(split.length <= rest.size(), "head past the stream");
    const std::string_view head = rest.substr(0, split.length);
    LDPM_FUZZ_ASSERT(EndsWith(head, "\r\n\r\n") || EndsWith(head, "\n\n"),
                     "head does not end at a terminator");
    LDPM_FUZZ_ASSERT(
        ldpm::net::SplitHttpRequestHead(head.substr(0, split.length - 1))
                .length == 0,
        "head runs past an earlier terminator");
    LDPM_FUZZ_ASSERT(!split.keep_alive ||
                         head.find("HTTP/1.1") != std::string_view::npos,
                     "keep-alive without an HTTP/1.1 request line");
    CheckParse(head);
    const size_t line_end = head.find('\n') + 1;
    for (const char* body_header :
         {"Content-Length: 27\r\n", "transfer-encoding: chunked\r\n"}) {
      const std::string announced = std::string(head.substr(0, line_end)) +
                                    body_header +
                                    std::string(head.substr(line_end));
      const ldpm::net::HttpHeadSplit with_body =
          ldpm::net::SplitHttpRequestHead(announced);
      LDPM_FUZZ_ASSERT(with_body.length > 0 && !with_body.keep_alive,
                       "keep-alive after a request that announces a body");
    }
    rest.remove_prefix(split.length);
  }
  return 0;
}
