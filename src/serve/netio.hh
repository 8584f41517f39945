/**
 * @file
 * Retry-hardened wrappers around the raw socket syscalls the serving
 * layer uses. Every call site in src/serve/ and tools/ goes through
 * these instead of the bare libc functions — the dcglint "net-io"
 * check enforces it — so EINTR handling and partial-write semantics
 * are decided once, here, and cannot regress one call site at a time.
 *
 * The wrappers deliberately preserve the raw return-value contract
 * (ssize_t/-1 + errno) so call sites keep their EAGAIN/EWOULDBLOCK
 * handling: non-blocking event loops still see would-block, timed
 * blocking sockets still see their SO_RCVTIMEO/SO_SNDTIMEO expiry.
 * Only EINTR is absorbed — a signal must never be misread as a dead
 * peer, a short write, or an expired timeout.
 *
 * connectRetry() is the one asymmetric case: POSIX says a connect()
 * interrupted by a signal *continues asynchronously*, so retrying the
 * call itself would yield EALREADY/EISCONN confusion. Instead an
 * EINTR is reported as EINPROGRESS, which every caller already treats
 * as "poll for completion" — exactly the state the kernel is in.
 *
 * Every TCP connection the service makes or accepts runs with
 * TCP_NODELAY, and acceptRetry()/connectRetry() are where it is set —
 * so server-accepted connections, peer links and every client get it
 * without a call site of their own. A frame here is one small request
 * or reply line the other side is waiting on, often pipelined behind
 * others on the same link: Nagle's algorithm would hold it until the
 * previous segment is acknowledged, and the peer's delayed ACK holds
 * that acknowledgement back for tens of milliseconds.
 */

#ifndef DCG_SERVE_NETIO_HH
#define DCG_SERVE_NETIO_HH

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>

namespace dcg::serve::net {

/** read(2) restarted on EINTR. */
inline ssize_t
readRetry(int fd, void *buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = read(fd, buf, n);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** write(2) restarted on EINTR (async-signal-safe: loop + write). */
inline ssize_t
writeRetry(int fd, const void *buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = write(fd, buf, n);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** recv(2) restarted on EINTR. */
inline ssize_t
recvRetry(int fd, void *buf, std::size_t n, int flags)
{
    for (;;) {
        const ssize_t r = recv(fd, buf, n, flags);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** send(2) restarted on EINTR. */
inline ssize_t
sendRetry(int fd, const void *buf, std::size_t n, int flags)
{
    for (;;) {
        const ssize_t r = send(fd, buf, n, flags);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/**
 * poll(2) restarted on EINTR with the same timeout. Callers that need
 * an absolute deadline recompute the remaining time in their own loop
 * (the event loops here all do); for them a restarted slice only
 * shifts one wakeup, never the deadline.
 */
inline int
pollRetry(pollfd *fds, nfds_t nfds, int timeoutMs)
{
    for (;;) {
        const int r = poll(fds, nfds, timeoutMs);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** Turn Nagle's algorithm off on a TCP socket (see file comment).
 *  setsockopt(2)'s result: 0, or -1 with errno set. */
inline int
setNoDelay(int fd)
{
    const int one = 1;
    return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/**
 * accept(2) restarted on EINTR, returning a TCP_NODELAY socket. A
 * connection that cannot take the option is closed and reported as
 * the failed accept (-1, with setsockopt's errno).
 */
inline int
acceptRetry(int fd)
{
    for (;;) {
        const int r = accept(fd, nullptr, nullptr);
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0 || setNoDelay(r) == 0)
            return r;
        const int err = errno;
        close(r);
        errno = err;
        return -1;
    }
}

/**
 * connect(2) on a socket first set to TCP_NODELAY, with EINTR mapped
 * to EINPROGRESS (see file comment): the handshake keeps running in
 * the kernel, so the caller polls for completion exactly as it would
 * for a non-blocking connect. A socket that cannot take the option
 * fails like a refused connect (-1, with setsockopt's errno).
 */
inline int
connectRetry(int fd, const sockaddr *addr, socklen_t len)
{
    if (setNoDelay(fd) != 0)
        return -1;
    const int r = connect(fd, addr, len);
    if (r < 0 && errno == EINTR)
        errno = EINPROGRESS;
    return r;
}

/**
 * Write all of @p n bytes to a blocking (possibly SO_SNDTIMEO-timed)
 * socket, handling partial writes and EINTR. Returns the number of
 * bytes written; short only on error/timeout (check errno).
 */
inline std::size_t
sendAllRetry(int fd, const char *data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = sendRetry(fd, data + off, n - off,
                                    MSG_NOSIGNAL);
        if (w <= 0)
            break;
        off += static_cast<std::size_t>(w);
    }
    return off;
}

} // namespace dcg::serve::net

#endif // DCG_SERVE_NETIO_HH
