/**
 * netio tests: the socket wrappers every service connection is made
 * and accepted through hand back TCP_NODELAY sockets on both ends.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/netio.hh"

using namespace dcg::serve;

namespace {

/** The socket's TCP_NODELAY setting, or -1 when it cannot be read. */
int
noDelayOf(int fd)
{
    int value = -1;
    socklen_t len = sizeof(value);
    if (getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0)
        return -1;
    return value;
}

} // namespace

TEST(NetIo, ConnectedAndAcceptedSocketsSetTcpNoDelay)
{
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr), len),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                          &len),
              0);

    // A fresh socket starts with Nagle's algorithm on; the wrappers
    // are what turn it off.
    const int client = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    EXPECT_EQ(noDelayOf(client), 0);
    ASSERT_EQ(net::connectRetry(client,
                                reinterpret_cast<sockaddr *>(&addr), len),
              0);
    const int server = net::acceptRetry(listener);
    ASSERT_GE(server, 0);

    EXPECT_EQ(noDelayOf(client), 1);
    EXPECT_EQ(noDelayOf(server), 1);
    ::close(server);
    ::close(client);
    ::close(listener);
}
