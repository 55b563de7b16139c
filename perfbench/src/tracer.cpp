#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench
{

namespace
{

thread_local std::int64_t tCurrentSpan = -1;
thread_local std::int64_t tCurrentCell = -1;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::int64_t
Tracer::open()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::close(Span span)
{
    span.start -= origin_;
    span.end -= origin_;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::unordered_map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        index.emplace(spans_[i].id, i);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += spans_[i].seconds();
    for (const Span &s : spans_) {
        const auto it = index.find(s.parent);
        if (it != index.end())
            self[it->second] -= s.seconds();
    }
    return self;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &manifest) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"manifest\": " << manifest << ",\n\"dropped\": " << dropped()
       << ",\n\"spans\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %lld, \"name\": \"%s\", \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %lld, \"cell\": %lld, "
                      "\"key\": %lld, \"tag\": \"%s\"}",
                      static_cast<long long>(s.id),
                      jsonEscape(s.name).c_str(), s.start, s.end,
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.cell),
                      static_cast<long long>(s.key),
                      jsonEscape(s.tag).c_str());
        os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name, std::int64_t cell,
                       std::int64_t key, std::string tag)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.name = name;
    span_.id = tracer_->open();
    span_.parent = tCurrentSpan;
    span_.cell = cell >= 0 ? cell : tCurrentCell;
    span_.key = key;
    span_.tag = std::move(tag);
    savedParent_ = tCurrentSpan;
    savedCell_ = tCurrentCell;
    tCurrentSpan = span_.id;
    tCurrentCell = span_.cell;
    span_.start = hostNow();
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    span_.end = hostNow();
    tCurrentSpan = savedParent_;
    tCurrentCell = savedCell_;
    try {
        tracer_->close(std::move(span_));
    } catch (const std::exception &) {
        // Out of memory while storing a span: the span is lost, and
        // the tracer reports how many were.
        tracer_->dropped_.fetch_add(1);
    }
}

} // namespace perfbench
