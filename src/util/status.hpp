// Error taxonomy shared across the sjc libraries.
//
// The simulator distinguishes *programming errors* (violated preconditions,
// reported via SjcError) from *simulated runtime failures* (conditions the
// paper's systems hit in production, e.g. a Hadoop Streaming broken pipe or
// a Spark executor OOM). Simulated failures derive from SimFailure so that
// benchmark harnesses can catch them and report "-" table cells the way the
// paper does, while real bugs still propagate.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sjc {

/// Base class for all errors raised by the sjc libraries.
class SjcError : public std::runtime_error {
 public:
  explicit SjcError(const std::string& what) : std::runtime_error(what) {}
};

/// Precondition/usage violation: indicates a bug in calling code.
class InvalidArgument : public SjcError {
 public:
  explicit InvalidArgument(const std::string& what) : SjcError(what) {}
};

/// Parse failure (WKT, TSV record, ...).
class ParseError : public SjcError {
 public:
  explicit ParseError(const std::string& what) : SjcError(what) {}
};

/// Base class for *simulated* runtime failures. These model failure modes
/// of the paper's systems (broken pipes, OOM) and are expected to be caught
/// by experiment drivers.
class SimFailure : public SjcError {
 public:
  explicit SimFailure(const std::string& what) : SjcError(what) {}
};

/// Hadoop Streaming pipe overflow (HadoopGIS failure mode in Tables 2-3).
class BrokenPipe : public SimFailure {
 public:
  explicit BrokenPipe(const std::string& what) : SimFailure(what) {}
};

/// Spark executor/aggregate memory exhaustion (SpatialSpark failure mode).
class SimOutOfMemory : public SimFailure {
 public:
  explicit SimOutOfMemory(const std::string& what) : SimFailure(what) {}
};

/// A task exhausted its retry budget (mapred.map/reduce.max.attempts in real
/// Hadoop): the job is killed after the final failed attempt.
class TaskFailed : public SimFailure {
 public:
  explicit TaskFailed(const std::string& what) : SimFailure(what) {}
};

/// No live datanode can take a block. (A block that lost every replica is
/// only counted in SimDfs's repair; no engine reads a file back.)
class BlockUnavailable : public SimFailure {
 public:
  explicit BlockUnavailable(const std::string& what) : SimFailure(what) {}
};

/// The job-level retry budget (FaultPlan::job_retry_budget) ran out: too
/// many failed attempts across all phases, even though no single task
/// exhausted its per-task attempts — Hadoop's job-failure-percentage kill.
class RetryBudgetExhausted : public SimFailure {
 public:
  explicit RetryBudgetExhausted(const std::string& what) : SimFailure(what) {}
};

/// A phase overran its per-phase timeout (FaultPlan::phase_timeout_s) and
/// was killed at the deadline by the job tracker.
class DeadlineExceeded : public SimFailure {
 public:
  explicit DeadlineExceeded(const std::string& what) : SimFailure(what) {}
};

/// Throws InvalidArgument with `what` when `cond` is false. A literal
/// message binds the `const char*` overload, which builds no string unless
/// the check fails.
inline void require(bool cond, const char* what) {
  if (!cond) throw InvalidArgument(what);
}
inline void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}

// ---------------------------------------------------------------------------
// Structured status
// ---------------------------------------------------------------------------
//
// Exceptions carry failures *inside* an engine; at the RunReport boundary the
// system drivers flatten them into a Status so harnesses and bench binaries
// can print a one-line diagnosis and branch on the failure class without
// string-matching what() text (or worse, dying on an escaped throw).

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kBrokenPipe,
  kOutOfMemory,
  kTaskFailed,
  kBlockUnavailable,
  kRetryBudgetExhausted,
  kDeadlineExceeded,
  kResourceExhausted,  // admission control: bounded queue / tenant quota full
  kUnavailable,        // service not accepting work (draining or stopped)
  kInternal,  // an SjcError with no more specific classification
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kParseError: return "PARSE_ERROR";
    case StatusCode::kBrokenPipe: return "BROKEN_PIPE";
    case StatusCode::kOutOfMemory: return "OUT_OF_MEMORY";
    case StatusCode::kTaskFailed: return "TASK_FAILED";
    case StatusCode::kBlockUnavailable: return "BLOCK_UNAVAILABLE";
    case StatusCode::kRetryBudgetExhausted: return "RETRY_BUDGET_EXHAUSTED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>" — the bench binaries' one-line diagnosis.
  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Maps a caught SjcError onto the Status taxonomy by dynamic type. The
/// system drivers call this in their run-boundary catch blocks; order goes
/// most-derived first so every SimFailure keeps its specific code.
inline Status status_from_exception(const SjcError& e) {
  const std::string what = e.what();
  if (dynamic_cast<const BrokenPipe*>(&e) != nullptr) {
    return {StatusCode::kBrokenPipe, what};
  }
  if (dynamic_cast<const SimOutOfMemory*>(&e) != nullptr) {
    return {StatusCode::kOutOfMemory, what};
  }
  if (dynamic_cast<const TaskFailed*>(&e) != nullptr) {
    return {StatusCode::kTaskFailed, what};
  }
  if (dynamic_cast<const BlockUnavailable*>(&e) != nullptr) {
    return {StatusCode::kBlockUnavailable, what};
  }
  if (dynamic_cast<const RetryBudgetExhausted*>(&e) != nullptr) {
    return {StatusCode::kRetryBudgetExhausted, what};
  }
  if (dynamic_cast<const DeadlineExceeded*>(&e) != nullptr) {
    return {StatusCode::kDeadlineExceeded, what};
  }
  if (dynamic_cast<const InvalidArgument*>(&e) != nullptr) {
    return {StatusCode::kInvalidArgument, what};
  }
  if (dynamic_cast<const ParseError*>(&e) != nullptr) {
    return {StatusCode::kParseError, what};
  }
  return {StatusCode::kInternal, what};
}

}  // namespace sjc
