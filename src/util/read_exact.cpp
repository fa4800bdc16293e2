#include "util/read_exact.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>

#include "util/check.hpp"

namespace capsp {

void read_exact_bytes(std::istream& is, void* dst, std::streamsize bytes,
                      const char* what) {
  is.read(static_cast<char*>(dst), bytes);
  CAPSP_CHECK_MSG(!is.bad() && is.gcount() == bytes,
                  "file truncated: wanted " << bytes << " bytes of " << what
                                            << ", got " << is.gcount());
}

void pread_exact(int fd, void* dst, std::int64_t bytes, std::int64_t offset,
                 const char* what, const PreadFn& pread_fn,
                 PreadStats* stats) {
  CAPSP_CHECK_MSG(bytes >= 0, "pread_exact wants " << bytes << " bytes");
  char* out = static_cast<char*>(dst);
  std::int64_t done = 0;
  while (done < bytes) {
    const long n =
        pread_fn
            ? pread_fn(fd, out + done, static_cast<std::size_t>(bytes - done),
                       offset + done)
            : static_cast<long>(::pread(
                  fd, out + done, static_cast<std::size_t>(bytes - done),
                  offset + done));
    if (n < 0) {
      // A signal landing mid-read is not a bad file; try again.
      if (errno == EINTR) {
        if (stats != nullptr) ++stats->eintr_retries;
        continue;
      }
      CAPSP_CHECK_MSG(false, "pread failed after " << done << " of " << bytes
                                                   << " bytes of " << what
                                                   << ": "
                                                   << std::strerror(errno));
    }
    if (n == 0) {
      // EOF before the payload arrived: the file really is short.
      CAPSP_CHECK_MSG(false, "file truncated: wanted " << bytes
                                                       << " bytes of " << what
                                                       << ", got " << done);
    }
    if (stats != nullptr && n < bytes - done) ++stats->short_reads;
    done += n;
  }
}

}  // namespace capsp
