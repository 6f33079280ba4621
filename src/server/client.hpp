#pragma once

#include <string>
#include <string_view>

#include "server/protocol.hpp"

/// \file client.hpp
/// Minimal blocking client for the netpartd protocol, shared by netpartc
/// and the server tests.  One request line out, one response line back;
/// errors are reported through return values (`last_error()`), never
/// thrown.

namespace netpart::server {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a server socket ('@' prefix = abstract namespace).
  [[nodiscard]] bool connect(const std::string& socket_path);

  /// Connect over TCP to "host:port" (empty host -> 127.0.0.1).  The wire
  /// protocol is identical to the unix-socket transport.
  [[nodiscard]] bool connect_tcp(const std::string& host_port);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  /// Send one request line (newline appended) — false on I/O failure.
  [[nodiscard]] bool send_line(std::string_view line);

  /// Block until one complete response line arrives; strips the newline.
  [[nodiscard]] bool read_line(std::string& out);

  /// send_line + read_line.
  [[nodiscard]] bool round_trip(std::string_view request, std::string& response);

  /// round_trip + parse: returns false on transport or JSON failure.
  [[nodiscard]] bool round_trip_json(std::string_view request, JsonValue& out);

  [[nodiscard]] const std::string& last_error() const { return error_; }

 private:
  int fd_ = -1;
  std::string inbuf_;
  std::string error_;
};

}  // namespace netpart::server
