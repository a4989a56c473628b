// flodb-cli: a minimal redis-cli-style client for flodb-server.
//
//   flodb-cli -p 6399 SET user:1 alice     # one-shot command
//   flodb-cli -p 6399                      # REPL on stdin
//
// Replies print in redis-cli notation: "(integer) 3", "(nil)",
// "(error) ...", numbered array elements.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flodb/net/resp_client.h"
#include "int_flag.h"

namespace {

void PrintReply(const flodb::RespReply& reply, int indent = 0) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (reply.type) {
    case flodb::RespReply::Type::kSimple:
      std::printf("%s%s\n", pad.c_str(), reply.str.c_str());
      break;
    case flodb::RespReply::Type::kError:
      std::printf("%s(error) %s\n", pad.c_str(), reply.str.c_str());
      break;
    case flodb::RespReply::Type::kInteger:
      std::printf("%s(integer) %lld\n", pad.c_str(), static_cast<long long>(reply.integer));
      break;
    case flodb::RespReply::Type::kBulk:
      std::printf("%s\"%s\"\n", pad.c_str(), reply.str.c_str());
      break;
    case flodb::RespReply::Type::kNil:
      std::printf("%s(nil)\n", pad.c_str());
      break;
    case flodb::RespReply::Type::kArray:
      if (reply.elements.empty()) {
        std::printf("%s(empty array)\n", pad.c_str());
      }
      for (size_t i = 0; i < reply.elements.size(); ++i) {
        std::printf("%s%zu) ", pad.c_str(), i + 1);
        PrintReply(reply.elements[i], 0);
      }
      break;
  }
}

// Whitespace tokenizer with double-quote grouping ("a b" is one arg).
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> args;
  std::string current;
  bool in_quotes = false;
  bool have_token = false;
  for (char c : line) {
    if (c == '"') {
      in_quotes = !in_quotes;
      have_token = true;
      continue;
    }
    if (!in_quotes && (c == ' ' || c == '\t')) {
      if (have_token) {
        args.push_back(current);
        current.clear();
        have_token = false;
      }
      continue;
    }
    current.push_back(c);
    have_token = true;
  }
  if (have_token) {
    args.push_back(current);
  }
  return args;
}

int RunOne(flodb::RespClient& client, const std::vector<std::string>& args) {
  flodb::RespReply reply;
  flodb::Status status = client.Command(args, &reply);
  if (!status.ok()) {
    std::fprintf(stderr, "flodb-cli: %s\n", status.ToString().c_str());
    return 1;
  }
  PrintReply(reply);
  return reply.type == flodb::RespReply::Type::kError ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 6399;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "-p" && i + 1 < argc) {
      port = static_cast<int>(IntFlagOrExit("-p", argv[++i], 1, 65535));
    } else if (arg == "--help") {
      std::fprintf(stderr, "usage: %s [-h host] [-p port] [COMMAND [args...]]\n", argv[0]);
      return 0;
    } else {
      break;  // start of the command words
    }
  }

  flodb::RespClient client;
  flodb::Status status = client.Connect(host, port);
  if (!status.ok()) {
    std::fprintf(stderr, "flodb-cli: %s\n", status.ToString().c_str());
    return 1;
  }

  if (i < argc) {
    std::vector<std::string> args(argv + i, argv + argc);
    return RunOne(client, args);
  }

  // REPL.
  std::string line;
  while (true) {
    std::printf("%s:%d> ", host.c_str(), port);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    const std::vector<std::string> args = Tokenize(line);
    if (args.empty()) {
      continue;
    }
    if (args.size() == 1 && (args[0] == "exit" || args[0] == "quit")) {
      break;
    }
    RunOne(client, args);
  }
  return 0;
}
