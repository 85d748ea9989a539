// EFAC005: a capturing lambda that is itself a coroutine. The lambda
// object (where captures live) is destroyed once the coroutine suspends;
// every capture dangles on resume. Cases 1-3 are the shapes a regex over
// `[captures](params) -> Task<` misses; cases 4-9 are the shapes such a
// regex does catch, kept here so EFAC005 is pinned on both. Case 10 is a
// structured binding in the body, which once hid the capture.
namespace sim {
template <typename T>
struct Task {
  bool await_ready();
};
}  // namespace sim
namespace efac::sim {
template <typename T>
struct Task {};
}  // namespace efac::sim
using sim::Task;

struct Server {
  int port;
  void run();
};

void spawn_all(Server& server, int arr[4], int i) {
  // 1. whitespace between Task and its argument list defeated the old
  //    `-> sim::Task<` pattern
  auto bad_ws = [&server]() -> sim::Task <void> {  // EXPECT: EFAC005
    co_await server_ready(server);
    server.run();
  };

  // 2. nested brackets inside the capture list defeated `[^\[\]]+`
  auto bad_nested = [x = arr[i]]() -> sim::Task<int> {  // EXPECT: EFAC005
    co_return x;
  };

  // 3. deduced return type: no Task<...> in the signature at all, only
  //    the co_return in the body reveals the coroutine
  auto bad_deduced = [&server] {  // EXPECT: EFAC005
    co_return;
  };

  // 4. the plain shape
  auto bad_plain = [&server]() -> sim::Task<void> {  // EXPECT: EFAC005
    co_await server_ready(server);
  };

  // 5./6. specifiers between the parameter list and the return type
  auto bad_mutable = [i]() mutable -> sim::Task<int> {  // EXPECT: EFAC005
    co_return i;
  };
  auto bad_noexcept = [&server]() noexcept -> sim::Task<void> {  // EXPECT: EFAC005
    co_return;
  };

  // 7./8. unqualified and fully qualified task types
  auto bad_unqualified = [&server](int n) -> Task<void> {  // EXPECT: EFAC005
    co_return;
  };
  auto bad_qualified = [=]() -> efac::sim::Task<void> {  // EXPECT: EFAC005
    co_return;
  };

  // 9. capture list and signature spread over several lines
  auto bad_multiline = [&server,  // EXPECT: EFAC005
                        i](int a,
                           int b)
      -> sim::Task<void> {
    co_return;
  };

  // 10. a structured binding in the body was taken for a nested lambda:
  //     its loop body (and the co_await in it) was blanked, so the real
  //     capture went unreported and the binding was reported instead
  auto bad_binding = [i, &server](Server* list) -> sim::Task<void> {  // EXPECT: EFAC005
    for (const auto& [k, v] : list) {
      co_await server_ready(k + v + i);
    }
  };

  // capture-free coroutine lambdas are the sanctioned pattern
  auto good = [](Server& s) -> sim::Task<void> {
    co_await server_ready(s);
    s.run();
  };

  // capturing NON-coroutine lambdas are fine
  auto also_good = [&server] { server.run(); };

  (void)bad_ws;
  (void)bad_nested;
  (void)bad_deduced;
  (void)bad_plain;
  (void)bad_mutable;
  (void)bad_noexcept;
  (void)bad_unqualified;
  (void)bad_qualified;
  (void)bad_multiline;
  (void)bad_binding;
  (void)good;
  (void)also_good;
}
