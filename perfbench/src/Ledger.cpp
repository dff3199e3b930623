//===-- perfbench/src/Ledger.cpp - Benchmark harness utilities ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "serve/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ledger {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double pairedOverhead(const std::vector<double> &Traced,
                      const std::vector<double> &Untraced) {
  std::vector<double> Ratios;
  for (size_t I = 0; I != Traced.size() && I != Untraced.size(); ++I)
    Ratios.push_back(Traced[I] / Untraced[I] - 1);
  return median(Ratios);
}

bool tailOf(std::vector<double> V, Tail &Out) {
  if (V.size() < 11)
    return false;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Rank = N - 11; // ten samples lie strictly beyond this one
  Out.Value = V[Rank];
  Out.Percentile = 100.0 * double(Rank + 1) / double(N);
  Out.Samples = N;
  return true;
}

//===--- span log ----------------------------------------------------------//

int32_t SpanLog::begin(const char *Name) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanLog::end(int32_t Id) {
  if (!On || Id < 0)
    return;
  Spans[Id].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::vector<double> SpanLog::selfMillis() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = double(Spans[I].EndNs - Spans[I].StartNs) / 1e6;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= double(S.EndNs - S.StartNs) / 1e6;
  return Self;
}

std::vector<double> SpanLog::selfMillisOf(const std::string &Name) const {
  std::vector<double> Self = selfMillis(), Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == Name)
      Out.push_back(Self[I]);
  return Out;
}

std::vector<double>
SpanLog::layerMillisUnder(const std::string &Root) const {
  std::vector<double> Self = selfMillis();
  std::map<int32_t, double> Sum;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == Root)
      Sum[static_cast<int32_t>(I)] = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    // Attribute every descendant's self time to its nearest Root ancestor.
    for (int32_t P = Spans[I].Parent; P >= 0; P = Spans[P].Parent)
      if (auto It = Sum.find(P); It != Sum.end()) {
        It->second += Self[I];
        break;
      }
  }
  std::vector<double> Out;
  for (const auto &[Id, Ms] : Sum)
    Out.push_back(Ms);
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::string Out = "[\n";
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += "{\"name\": " + quote(S.Name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           formatNumber(double(S.StartNs - Base) / 1e3) +
           ", \"dur\": " + formatNumber(double(S.EndNs - S.StartNs) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(I) +
           ", \"parent\": " + std::to_string(S.Parent) + "}}";
    Out += I + 1 == Spans.size() ? "\n" : ",\n";
  }
  Out += "]\n";
  return writeFile(Path, Out);
}

//===--- counter deltas ----------------------------------------------------//

CounterMark::CounterMark() {
  for (const auto &[Name, V] : stcfa::snapshotMetrics().Counters)
    Before[Name] = V;
}

uint64_t CounterMark::since(const std::string &Name) const {
  uint64_t Now = stcfa::counter(Name).value();
  auto It = Before.find(Name);
  return Now - (It == Before.end() ? 0 : It->second);
}

double Samples::medianOf(const std::string &Name) const {
  auto It = S.find(Name);
  return It == S.end() ? 0 : median(It->second);
}

//===--- child processes ---------------------------------------------------//

namespace {

std::vector<char *> argvOf(const std::vector<std::string> &Argv) {
  std::vector<char *> Out;
  for (const std::string &A : Argv)
    Out.push_back(const_cast<char *>(A.c_str()));
  Out.push_back(nullptr);
  return Out;
}

/// Child-side setup shared by every spawned program: die with the
/// harness, and never burn more than two CPU-minutes.
void confineChild() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  rlimit CpuLimit{120, 130};
  setrlimit(RLIMIT_CPU, &CpuLimit);
}

} // namespace

ProcessResult runProcess(const std::vector<std::string> &Argv,
                         const std::string &StdoutPath) {
  ProcessResult R;
  std::vector<char *> Args = argvOf(Argv);
  std::string ErrPath = StdoutPath + ".err";
  // Drop the previous output before the clock starts: truncating a large
  // file frees its page-cache pages, which is not the program's work.
  unlink(StdoutPath.c_str());
  uint64_t T0 = nowNs();
  pid_t Pid = fork();
  if (Pid < 0)
    return R;
  if (Pid == 0) {
    confineChild();
    int Out = open(StdoutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Err = open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Out < 0 || Err < 0 || dup2(Out, 1) < 0 || dup2(Err, 2) < 0)
      _exit(127);
    close(Out);
    close(Err);
    execv(Args[0], Args.data());
    _exit(127);
  }
  int Status = 0;
  rusage Usage{};
  while (wait4(Pid, &Status, 0, &Usage) < 0)
    if (errno != EINTR)
      return R;
  R.WallMs = double(nowNs() - T0) / 1e6;
  R.Started = true;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  R.MaxRssMb = double(Usage.ru_maxrss) / 1024.0;
  return R;
}

bool Daemon::start(const std::vector<std::string> &Argv,
                   const std::string &StderrPath) {
  int In[2], Out[2];
  if (pipe(In) != 0)
    return false;
  if (pipe(Out) != 0) {
    close(In[0]);
    close(In[1]);
    return false;
  }
  std::vector<char *> Args = argvOf(Argv);
  Pid = fork();
  if (Pid < 0) {
    for (int Fd : {In[0], In[1], Out[0], Out[1]})
      close(Fd);
    return false;
  }
  if (Pid == 0) {
    confineChild();
    int Err = open(StderrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Err < 0 || dup2(In[0], 0) < 0 || dup2(Out[1], 1) < 0 ||
        dup2(Err, 2) < 0)
      _exit(127);
    for (int Fd : {In[0], In[1], Out[0], Out[1], Err})
      close(Fd);
    execv(Args[0], Args.data());
    _exit(127);
  }
  close(In[0]);
  close(Out[1]);
  ToChild = In[1];
  FromChild = Out[0];
  return true;
}

bool Daemon::request(const std::string &Line, std::string &Reply, double &Ms,
                     int TimeoutMs) {
  if (Pid < 0)
    return false;
  std::string Msg = Line + "\n";
  uint64_t T0 = nowNs();
  for (size_t Off = 0; Off < Msg.size();) {
    ssize_t N = write(ToChild, Msg.data() + Off, Msg.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  char Buf[1 << 16];
  for (;;) {
    if (size_t Nl = Buffered.find('\n'); Nl != std::string::npos) {
      Ms = double(nowNs() - T0) / 1e6;
      Reply = Buffered.substr(0, Nl);
      Buffered.erase(0, Nl + 1);
      return true;
    }
    pollfd P{FromChild, POLLIN, 0};
    int Waited = static_cast<int>((nowNs() - T0) / 1000000);
    if (Waited >= TimeoutMs)
      return false;
    int Ready = poll(&P, 1, TimeoutMs - Waited);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      return false;
    ssize_t N = read(FromChild, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffered.append(Buf, static_cast<size_t>(N));
  }
}

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool Daemon::stop() {
  if (Pid < 0)
    return false;
  std::string Reply;
  double Ms = 0;
  bool Acked = request("{\"id\": \"stop\", \"verb\": \"shutdown\"}", Reply,
                       Ms, 10000);
  close(ToChild);
  ToChild = -1;
  int Status = 0;
  for (int Tries = 0; Tries != 500; ++Tries) {
    pid_t W = waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      Pid = -1;
      close(FromChild);
      FromChild = -1;
      return Acked && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    }
    usleep(10000);
  }
  kill();
  return false;
}

void Daemon::kill() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
  }
  if (ToChild >= 0)
    close(ToChild);
  if (FromChild >= 0)
    close(FromChild);
  ToChild = FromChild = -1;
}

Daemon::~Daemon() { kill(); }

//===--- files and output ----------------------------------------------------//

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

bool filesEqual(const std::string &A, const std::string &B) {
  std::ifstream InA(A, std::ios::binary), InB(B, std::ios::binary);
  if (!InA || !InB)
    return false;
  std::vector<char> BufA(1 << 20), BufB(1 << 20);
  for (;;) {
    InA.read(BufA.data(), static_cast<std::streamsize>(BufA.size()));
    InB.read(BufB.data(), static_cast<std::streamsize>(BufB.size()));
    std::streamsize NA = InA.gcount(), NB = InB.gcount();
    if (NA != NB ||
        std::memcmp(BufA.data(), BufB.data(), static_cast<size_t>(NA)) != 0)
      return false;
    if (NA == 0)
      return true;
  }
}

uint64_t fileSize(const std::string &Path) {
  std::error_code EC;
  uint64_t N = std::filesystem::file_size(Path, EC);
  return EC ? 0 : N;
}

bool makeDirs(const std::string &Path) {
  std::error_code EC;
  std::filesystem::create_directories(Path, EC);
  return !EC;
}

bool removeTree(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
  return !EC;
}

std::string formatNumber(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

std::string quote(const std::string &S) {
  return stcfa::serve::renderJson(stcfa::serve::JsonValue::string(S));
}

} // namespace ledger
