#include "child.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ckvbench {

namespace {

/// Appends each field's bytes (vectors, strings and maps length-prefixed).
class Writer {
 public:
  void operator()(double v) { put(&v, sizeof(v)); }
  void operator()(std::int64_t v) { put(&v, sizeof(v)); }
  void operator()(std::uint64_t v) { put(&v, sizeof(v)); }
  void operator()(const std::vector<double>& v) {
    (*this)(static_cast<std::int64_t>(v.size()));
    put(v.data(), v.size() * sizeof(double));
  }
  void operator()(const std::string& s) {
    (*this)(static_cast<std::int64_t>(s.size()));
    put(s.data(), s.size());
  }
  void operator()(const std::vector<std::string>& v) {
    (*this)(static_cast<std::int64_t>(v.size()));
    for (const std::string& s : v) {
      (*this)(s);
    }
  }
  void operator()(const std::map<std::string, double>& m) {
    (*this)(static_cast<std::int64_t>(m.size()));
    for (const auto& [key, value] : m) {
      (*this)(key);
      (*this)(value);
    }
  }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  void put(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  std::string bytes_;
};

/// Reads fields back in the order Writer wrote them.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}
  void operator()(double& v) { get(&v, sizeof(v)); }
  void operator()(std::int64_t& v) { get(&v, sizeof(v)); }
  void operator()(std::uint64_t& v) { get(&v, sizeof(v)); }
  void operator()(std::vector<double>& v) {
    v.resize(length(sizeof(double)));
    get(v.data(), v.size() * sizeof(double));
  }
  void operator()(std::string& s) {
    s.resize(length(1));
    get(s.data(), s.size());
  }
  void operator()(std::vector<std::string>& v) {
    v.resize(length(1));
    for (std::string& s : v) {
      (*this)(s);
    }
  }
  void operator()(std::map<std::string, double>& m) {
    const std::size_t n = length(1);
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      double value = 0.0;
      (*this)(key);
      (*this)(value);
      m[key] = value;
    }
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  /// Reads a length prefix, bounded by the bytes left.
  std::size_t length(std::size_t element_size) {
    std::int64_t n = 0;
    (*this)(n);
    if (n < 0 || static_cast<std::size_t>(n) > (bytes_.size() - pos_) / element_size) {
      throw std::runtime_error("malformed pass result from child process");
    }
    return static_cast<std::size_t>(n);
  }
  void get(void* data, std::size_t size) {
    if (size > bytes_.size() - pos_) {
      throw std::runtime_error("truncated pass result from child process");
    }
    std::memcpy(data, bytes_.data() + pos_, size);
    pos_ += size;
  }
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      _exit(3);
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

PassResult run_in_child(const std::function<PassResult()>& body) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    // Child: never outlive the parent, run the pass, send it, exit without
    // running the parent's atexit handlers.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    PassResult result;
    try {
      result = body();
    } catch (const std::exception& error) {
      result.failures.push_back(std::string("exception in pass: ") + error.what());
    }
    Writer writer;
    result.fields(writer);
    write_all(fds[1], writer.bytes());
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      bytes.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a benchmark pass process died");
  }
  PassResult result;
  Reader reader(bytes);
  result.fields(reader);
  if (!reader.done()) {
    throw std::runtime_error("malformed pass result from child process");
  }
  return result;
}

}  // namespace ckvbench
