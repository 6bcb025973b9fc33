// Replacement global allocation functions that count every operator new
// call, so allocs_per_op needs no LD_PRELOAD. The benchmark runs on one
// thread, so a plain counter suffices.
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

uint64_t g_allocations = 0;

void*
counted_alloc(std::size_t n)
{
    ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}

void*
counted_aligned_alloc(std::size_t n, std::align_val_t align)
{
    ++g_allocations;
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t rounded = (n + a - 1) / a * a;
    return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

uint64_t
perfbench::allocations()
{
    return g_allocations;
}

void*
operator new(std::size_t n)
{
    if (void* p = counted_alloc(n)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    if (void* p = counted_aligned_alloc(n, align)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return operator new(n, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
