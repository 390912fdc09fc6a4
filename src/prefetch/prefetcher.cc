#include "prefetch/prefetcher.hh"

namespace ecdp
{

const char *
aggLevelName(AggLevel level)
{
    switch (level) {
      case AggLevel::VeryConservative: return "Very Conservative";
      case AggLevel::Conservative: return "Conservative";
      case AggLevel::Moderate: return "Moderate";
      case AggLevel::Aggressive: return "Aggressive";
    }
    return "?";
}

} // namespace ecdp
