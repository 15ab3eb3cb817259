// Numeric-safety fixtures: predict() is an entry point, so every helper
// below is predict-reachable and runs the numeric rules. Each helper
// violates exactly one of them.

double narrow_probe(double v) {
  return static_cast<double>(static_cast<float>(v));  // fp-narrowing
}

double accumulate_probe(const std::vector<double>& xs) {
  float acc = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) acc += xs[i];  // float-accumulator
  return acc;
}

double ratio_probe(double num, double den) {
  return num / den;  // unguarded-division: den is never examined
}

double predict(const std::vector<double>& xs, double num, double den) {
  return narrow_probe(num) + accumulate_probe(xs) + ratio_probe(num, den);
}
