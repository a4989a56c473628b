#include "flodb/net/resp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flodb {

namespace {

// Attempts to decode one reply at data[pos]. Returns true on success
// (with *next past the reply); false = incomplete, need more bytes.
// Malformed data sets *bad.
bool DecodeReply(const char* data, size_t len, size_t pos, RespReply* out, size_t* next,
                 bool* bad) {
  if (pos >= len) {
    return false;
  }
  // Find the CRLF terminating the header line.
  size_t eol = pos;
  while (eol + 1 < len && !(data[eol] == '\r' && data[eol + 1] == '\n')) {
    ++eol;
  }
  if (eol + 1 >= len) {
    return false;
  }
  const char type = data[pos];
  const std::string line(data + pos + 1, eol - pos - 1);
  const size_t after = eol + 2;
  switch (type) {
    case '+':
      out->type = RespReply::Type::kSimple;
      out->str = line;
      *next = after;
      return true;
    case '-':
      out->type = RespReply::Type::kError;
      out->str = line;
      *next = after;
      return true;
    case ':':
      out->type = RespReply::Type::kInteger;
      out->integer = strtoll(line.c_str(), nullptr, 10);
      *next = after;
      return true;
    case '$': {
      const long long blen = strtoll(line.c_str(), nullptr, 10);
      if (blen < 0) {
        out->type = RespReply::Type::kNil;
        *next = after;
        return true;
      }
      if (len - after < static_cast<size_t>(blen) + 2) {
        return false;
      }
      out->type = RespReply::Type::kBulk;
      out->str.assign(data + after, static_cast<size_t>(blen));
      *next = after + static_cast<size_t>(blen) + 2;
      return true;
    }
    case '*': {
      const long long count = strtoll(line.c_str(), nullptr, 10);
      if (count < 0) {
        out->type = RespReply::Type::kNil;
        *next = after;
        return true;
      }
      // The smallest element ("+\r\n") is 3 bytes: a count the buffered
      // bytes cannot cover is incomplete, and allocating for it before
      // the bytes arrive would trust an unverified header.
      if (static_cast<unsigned long long>(count) > (len - after) / 3) {
        return false;
      }
      out->type = RespReply::Type::kArray;
      out->elements.assign(static_cast<size_t>(count), RespReply());
      size_t p = after;
      for (long long i = 0; i < count; ++i) {
        if (!DecodeReply(data, len, p, &out->elements[static_cast<size_t>(i)], &p, bad)) {
          return false;
        }
      }
      *next = p;
      return true;
    }
    default:
      *bad = true;
      return false;
  }
}

}  // namespace

Status RespClient::Connect(const std::string& host, int port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IOError("client: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("client: bad host address: " + host);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    Close();
    return Status::IOError("client: connect(" + host + ":" + std::to_string(port) +
                           ") failed: " + err);
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void RespClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  send_.clear();
  recv_ = ByteBuffer(16 << 10);
}

void RespClient::QueueCommand(const std::vector<std::string>& args) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "*%zu\r\n", args.size());
  send_.append(buf, static_cast<size_t>(n));
  for (const std::string& arg : args) {
    n = std::snprintf(buf, sizeof(buf), "$%zu\r\n", arg.size());
    send_.append(buf, static_cast<size_t>(n));
    send_.append(arg);
    send_.append("\r\n");
  }
}

Status RespClient::Flush() {
  size_t off = 0;
  while (off < send_.size()) {
    ssize_t n = send(fd_, send_.data() + off, send_.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IOError(std::string("client: send failed: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  send_.clear();
  return Status::OK();
}

Status RespClient::FillBuffer() {
  char* dst = recv_.EnsureWritable(64 << 10);
  ssize_t n = recv(fd_, dst, 64 << 10, 0);
  if (n > 0) {
    recv_.CommitWrite(static_cast<size_t>(n));
    return Status::OK();
  }
  if (n == 0) {
    return Status::IOError("client: connection closed by server");
  }
  if (errno == EINTR) {
    return Status::OK();
  }
  return Status::IOError(std::string("client: recv failed: ") + strerror(errno));
}

Status RespClient::ReadReply(RespReply* out) {
  if (fd_ < 0) {
    return Status::IOError("client: not connected");
  }
  for (;;) {
    *out = RespReply();
    size_t next = 0;
    bool bad = false;
    if (DecodeReply(recv_.ReadPtr(), recv_.Readable(), 0, out, &next, &bad)) {
      recv_.Consume(next);
      return Status::OK();
    }
    if (bad) {
      return Status::Corruption("client: malformed reply from server");
    }
    Status s = FillBuffer();
    if (!s.ok()) {
      return s;
    }
  }
}

Status RespClient::Command(const std::vector<std::string>& args, RespReply* out) {
  QueueCommand(args);
  Status s = Flush();
  if (!s.ok()) {
    return s;
  }
  return ReadReply(out);
}

}  // namespace flodb
