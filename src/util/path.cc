#include "src/util/path.h"

#include "src/util/hash.h"

namespace lfs::path {

bool
is_valid(std::string_view p)
{
    if (p.empty() || p[0] != '/') {
        return false;
    }
    for (std::string_view c : PathView(p)) {
        if (c == "." || c == "..") {
            return false;
        }
    }
    return true;
}

std::string
normalize(std::string_view p)
{
    std::string out;
    out.reserve(p.size() + 1);
    out += '/';
    for (std::string_view c : PathView(p)) {
        if (out.size() > 1) {
            out += '/';
        }
        out += c;
    }
    return out;
}

std::vector<std::string>
split(std::string_view p)
{
    std::vector<std::string> parts;
    for (std::string_view c : PathView(p)) {
        parts.emplace_back(c);
    }
    return parts;
}

std::string
parent(std::string_view p)
{
    std::string out;
    out.reserve(p.size());
    assign_parent(out, p);
    return out;
}

void
assign_parent(std::string& out, std::string_view p)
{
    out.clear();
    std::string_view prev;
    bool have_prev = false;
    for (std::string_view c : PathView(p)) {
        if (have_prev) {
            out += '/';
            out += prev;
        }
        prev = c;
        have_prev = true;
    }
    if (out.empty()) {
        out.push_back('/');
    }
}

std::string_view
parent_view(std::string_view p)
{
    // Trim trailing slashes, the final component, then its slashes.
    size_t end = p.size();
    while (end > 0 && p[end - 1] == '/') {
        --end;
    }
    while (end > 0 && p[end - 1] != '/') {
        --end;
    }
    while (end > 1 && p[end - 1] == '/') {
        --end;
    }
    if (end <= 1) {
        return "/";
    }
    return p.substr(0, end);
}

uint64_t
parent_hash(std::string_view p)
{
    // Fold "/comp" for every component but the last.
    uint64_t h = kFnv1aBasis;
    std::string_view prev;
    bool have_prev = false;
    bool hashed = false;
    for (std::string_view c : PathView(p)) {
        if (have_prev) {
            h = fnv1a_mix(fnv1a_mix(h, "/"), prev);
            hashed = true;
        }
        prev = c;
        have_prev = true;
    }
    return hashed ? h : fnv1a_mix(h, "/");
}

std::string_view
basename_view(std::string_view p)
{
    std::string_view last;
    for (std::string_view c : PathView(p)) {
        last = c;
    }
    return last;
}

std::string
basename(std::string_view p)
{
    return std::string(basename_view(p));
}

std::string
join(std::string_view dir, std::string_view name)
{
    std::string out = normalize(dir);
    if (out.size() > 1) {
        out += '/';
    }
    out += name;
    return out;
}

int
depth(std::string_view p)
{
    int n = 0;
    for ([[maybe_unused]] std::string_view c : PathView(p)) {
        ++n;
    }
    return n;
}

bool
is_under(std::string_view p, std::string_view prefix)
{
    auto pit = PathView(p).begin();
    for (std::string_view pre : PathView(prefix)) {
        if (pit == std::default_sentinel || *pit != pre) {
            return false;
        }
        ++pit;
    }
    return true;
}

std::vector<std::string>
ancestors(std::string_view p)
{
    std::vector<std::string> out;
    out.emplace_back("/");
    std::string cur;
    std::string_view prev;
    bool have_prev = false;
    for (std::string_view c : PathView(p)) {
        if (have_prev) {
            cur += '/';
            cur += prev;
            out.push_back(cur);
        }
        prev = c;
        have_prev = true;
    }
    return out;
}

}  // namespace lfs::path
