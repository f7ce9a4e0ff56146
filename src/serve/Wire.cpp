//===- serve/Wire.cpp - ctp-serve framing and message model ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "serve/Wire.h"

#include "support/Parse.h"
#include "support/Posix.h"

using namespace ctp;
using namespace ctp::serve;

const char serve::StatusOk[] = "ok";
const char serve::StatusDegraded[] = "degraded";
const char serve::StatusOverloaded[] = "overloaded";
const char serve::StatusError[] = "error";
const char serve::StatusTxnAborted[] = "txn-aborted";

const char *serve::frameResultName(FrameResult R) {
  switch (R) {
  case FrameResult::Ok:
    return "ok";
  case FrameResult::Eof:
    return "eof";
  case FrameResult::TornEof:
    return "torn-eof";
  case FrameResult::TooBig:
    return "too-big";
  case FrameResult::IoError:
    return "io-error";
  }
  return "unknown";
}

FrameResult serve::readFrame(int Fd, std::string &Payload) {
  Payload.clear();
  std::uint8_t Len[4];
  int Err = 0;
  std::size_t Got = posix::readFull(Fd, Len, sizeof(Len), &Err);
  if (Got == 0 && Err == 0)
    return FrameResult::Eof;
  if (Got < sizeof(Len))
    return Err != 0 ? FrameResult::IoError : FrameResult::TornEof;
  std::uint32_t N = static_cast<std::uint32_t>(Len[0]) |
                    (static_cast<std::uint32_t>(Len[1]) << 8) |
                    (static_cast<std::uint32_t>(Len[2]) << 16) |
                    (static_cast<std::uint32_t>(Len[3]) << 24);
  if (N > MaxFrameBytes)
    return FrameResult::TooBig;
  Payload.resize(N);
  if (N != 0) {
    Got = posix::readFull(Fd, &Payload[0], N, &Err);
    if (Got < N) {
      Payload.clear();
      return Err != 0 ? FrameResult::IoError : FrameResult::TornEof;
    }
  }
  return FrameResult::Ok;
}

bool serve::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  std::uint32_t N = static_cast<std::uint32_t>(Payload.size());
  // One buffer, one writeFull: interleaving a prefix write with another
  // thread's frame would corrupt the stream even under the caller's
  // mutex discipline if the two were separate syscalls on a shared fd
  // duplicated across processes.
  std::string Buf;
  Buf.reserve(4 + Payload.size());
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((N >> (8 * I)) & 0xff));
  Buf += Payload;
  return posix::writeFull(Fd, Buf.data(), Buf.size());
}

std::string serve::parseRequest(const std::string &Payload, Request &Out) {
  Out = Request();
  std::vector<std::string> Fields;
  std::string::size_type Pos = 0;
  while (true) {
    std::string::size_type Tab = Payload.find('\t', Pos);
    Fields.push_back(Payload.substr(
        Pos, Tab == std::string::npos ? std::string::npos : Tab - Pos));
    if (Tab == std::string::npos)
      break;
    Pos = Tab + 1;
  }
  if (Fields.size() < 2)
    return "malformed request: want <id>\\t<verb>[\\t<arg>...]";
  if (Fields[0].empty())
    return "malformed request: empty id";
  if (Fields[0].find_first_of("\n\r") != std::string::npos ||
      Fields[1].find_first_of("\n\r") != std::string::npos)
    return "malformed request: newline in id or verb";
  Out.Id = Fields[0];
  Out.Verb = Fields[1];
  for (std::size_t I = 2; I < Fields.size(); ++I) {
    const std::string &F = Fields[I];
    std::string::size_type Eq = F.find('=');
    if (Eq != std::string::npos) {
      std::string Key = F.substr(0, Eq);
      std::string Val = F.substr(Eq + 1);
      std::uint64_t N = 0;
      if (Key == "deadline_ms" || Key == "max_steps") {
        if (parseCount(Val, N) != ParseStatus::Ok)
          return "bad option value: " + Key + " wants a non-negative "
                                              "integer";
        (Key == "deadline_ms" ? Out.DeadlineMs : Out.MaxSteps) = N;
        continue;
      }
      return "unknown option: " + Key;
    }
    Out.Args.push_back(F);
  }
  return "";
}

std::string serve::renderResponse(const Response &R) {
  return R.Id + "\t" + R.Status + "\t" + R.Mode + "\t" +
         std::to_string(R.Epoch) + "\t" + R.Body;
}

bool serve::parseResponse(const std::string &Payload, Response &Out) {
  Out = Response();
  std::string::size_type A = Payload.find('\t');
  if (A == std::string::npos)
    return false;
  std::string::size_type B = Payload.find('\t', A + 1);
  if (B == std::string::npos)
    return false;
  std::string::size_type C = Payload.find('\t', B + 1);
  if (C == std::string::npos)
    return false;
  std::string::size_type D = Payload.find('\t', C + 1);
  if (D == std::string::npos)
    return false;
  // The body is the final field and may not contain tabs; a sixth field
  // would mean a framing bug, so reject it.
  if (Payload.find('\t', D + 1) != std::string::npos)
    return false;
  Out.Id = Payload.substr(0, A);
  Out.Status = Payload.substr(A + 1, B - A - 1);
  Out.Mode = Payload.substr(B + 1, C - B - 1);
  std::string Epoch = Payload.substr(C + 1, D - C - 1);
  if (parseCount(Epoch, Out.Epoch) != ParseStatus::Ok)
    return false;
  Out.Body = Payload.substr(D + 1);
  return !Out.Id.empty() && !Out.Status.empty();
}
