// Chunk encoders/decoders for the one predictor a bundle holds: CQR over a
// quantile pair, as core::fit_screen fits it. The chunk tag doubles as the
// runtime type discriminator, so a decoded artifact reconstructs the exact
// concrete types that were saved:
//
//   CQRC  alpha, mode byte, the two calibrated offsets, then exactly one
//     QPAR  alpha, label, then the lower and upper pair members, each one of
//       LINR GBTR OBST MLPR  (the four models make_quantile_pair builds)
//
// Anything else is an ArtifactError on both sides: an uncalibrated band (a
// bare QPAR) or another interval method is never written, and never served.
// Decoded models carry only predict-path state (via each model's XxxParams
// import); they are serve-only objects — refitting one uses default
// hyperparameters.
#pragma once

#include <memory>

#include "artifact/codec.hpp"
#include "models/interval.hpp"
#include "models/regressor.hpp"

namespace vmincqr::artifact {

/// Writes one chunk holding the fitted state of a quantile-pair member.
/// Throws ArtifactError for a concrete type the format cannot represent and
/// std::logic_error if the model is unfitted.
void encode_regressor(Writer& writer, const models::Regressor& model);

/// Reads one pair-member chunk and reconstructs the concrete model.
/// Throws ArtifactError on an unknown chunk tag or malformed payload.
[[nodiscard]] std::unique_ptr<models::Regressor> decode_regressor(
    Reader& reader);

/// Writes the CQRC chunk (with its one nested QPAR) of a calibrated
/// ConformalizedQuantileRegressor over a QuantilePairRegressor. Throws
/// ArtifactError for any other interval regressor; std::logic_error if the
/// model is unfitted or uncalibrated.
void encode_interval_regressor(Writer& writer,
                               const models::IntervalRegressor& model);

/// Reads the CQRC chunk, with its one nested QPAR, that makes up the rest of
/// `reader` and reconstructs the calibrated CQR, ready to serve
/// predict_interval(). Throws ArtifactError on any other chunk tag (a bare
/// QPAR included), on bytes after either chunk, or on a malformed payload.
[[nodiscard]] std::unique_ptr<models::IntervalRegressor>
decode_interval_regressor(Reader& reader);

}  // namespace vmincqr::artifact
