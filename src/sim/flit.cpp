#include "sim/flit.h"

#include <sstream>

#include "base/logging.h"

namespace genesis::sim {

void
Flit::panicOverflow()
{
    panic("flit field overflow (max %d)", kMaxFields);
}

void
Flit::panicFieldRange(int i) const
{
    panic("flit field %d out of range (%d fields)", i, numFields);
}

void
Flit::mergeFields(const Flit &other)
{
    for (int i = 0; i < other.numFields; ++i)
        pushField(other.field[static_cast<size_t>(i)]);
}

std::string
Flit::str() const
{
    std::ostringstream os;
    os << "{key=";
    if (key == kIns)
        os << "Ins";
    else
        os << key;
    os << " [";
    for (int i = 0; i < numFields; ++i) {
        if (i)
            os << ",";
        int64_t v = field[static_cast<size_t>(i)];
        if (v == kDel)
            os << "Del";
        else if (v == kNull)
            os << "Null";
        else
            os << v;
    }
    os << "]";
    if (lastOfItem)
        os << " EOI";
    os << "}";
    return os.str();
}

} // namespace genesis::sim
