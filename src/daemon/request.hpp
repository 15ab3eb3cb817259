// Request/response types of the serving daemon's front end.
//
// One request is ONE chip's monitor readout (a single row of the scenario
// design, in artifact column order); the daemon coalesces many of them into
// serve::VminPredictor::predict_batch calls. Responses are always typed:
// overload and shutdown produce explicit shed statuses, never silent drops
// or unbounded waits (DESIGN.md §11, backpressure contract).
#pragma once

#include <cstdint>
#include <vector>

#include "serve/vmin_predictor.hpp"

namespace vmincqr::daemon {

/// One chip's query: its feature row, in the active artifact's dataset
/// column order (width is validated against the epoch that serves it).
struct ChipQuery {
  std::vector<double> features;
};

/// Typed outcome of a query. Everything except kOk is a rejection the
/// caller can branch on — the daemon never throws on the request path.
enum class ServeStatus : std::uint8_t {
  kOk = 0,
  /// Shed at admission: the bounded queue was full (overload).
  kShedQueueFull = 1,
  /// Shed at admission: the daemon is stopped or stopping.
  kShedShutdown = 2,
  /// Served, but the row width did not match the epoch's expected features.
  kBadWidth = 3,
  /// Served, but no artifact has been installed yet.
  kNoArtifact = 4,
  /// The predictor threw while serving this batch (kept out of the daemon's
  /// control loop; the batch is answered, the daemon keeps running).
  kInternalError = 5,
};

/// The daemon's answer for one query.
struct ServeResponse {
  ServeStatus status = ServeStatus::kShedShutdown;
  /// Vmin interval (volts); meaningful only when status == kOk.
  serve::IntervalPrediction interval;
  /// Id of the artifact epoch that served this query (0 = never served —
  /// shed at admission). Bit-exactness contract: the interval equals what
  /// THIS epoch's predictor computes for the row, never a mix of epochs.
  std::uint64_t epoch = 0;
  /// Admission number (FIFO position among accepted requests); valid for
  /// every admitted request, including kBadWidth / kNoArtifact outcomes.
  std::uint64_t sequence = 0;
  /// Service completion number: the daemon fulfils admitted requests in
  /// admission order, so served_sequence == sequence is the FIFO-fairness
  /// invariant the soak battery asserts.
  std::uint64_t served_sequence = 0;
};

}  // namespace vmincqr::daemon
